(* Little helpers for serializing fixed-width integers into block-sized
   byte buffers.  Used by the journal and the on-disk file systems. *)

let put_u32 buf off v =
  if v < 0 then invalid_arg "Codec.put_u32: negative";
  Bytes.set buf off (Char.chr (v land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set buf (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get_u32 buf off =
  Char.code (Bytes.get buf off)
  lor (Char.code (Bytes.get buf (off + 1)) lsl 8)
  lor (Char.code (Bytes.get buf (off + 2)) lsl 16)
  lor (Char.code (Bytes.get buf (off + 3)) lsl 24)

let put_u16 buf off v =
  if v < 0 || v > 0xffff then invalid_arg "Codec.put_u16";
  Bytes.set buf off (Char.chr (v land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xff))

(* Order-independent additive checksum, enough to detect torn journal
   records in the simulator: the sum of (byte + 1) over the block, mod
   2^30.  It reads eight bytes per load: the even and the odd bytes of
   each 64-bit word are masked apart and added into four 16-bit lanes
   (at most 2 * 255 per word), and the lanes fold into the total every
   [fold_words] words, before any lane can pass 0xffff.  The tail bytes
   past the last whole word are added one by one. *)
let lane_mask = 0x00ff00ff00ff00ffL
let fold_words = 128

let sum_lanes l =
  let lane shift = Int64.to_int (Int64.logand (Int64.shift_right_logical l shift) 0xffffL) in
  lane 0 + lane 16 + lane 32 + lane 48

let checksum data =
  let len = Bytes.length data in
  let words = len / 8 in
  let total = ref len (* the +1 per byte *) in
  let w = ref 0 in
  while !w < words do
    let stop = min words (!w + fold_words) in
    let lanes = ref 0L in
    for i = !w to stop - 1 do
      let x = Bytes.get_int64_le data (8 * i) in
      lanes :=
        Int64.add !lanes
          (Int64.add (Int64.logand x lane_mask)
             (Int64.logand (Int64.shift_right_logical x 8) lane_mask))
    done;
    total := !total + sum_lanes !lanes;
    w := stop
  done;
  for i = 8 * words to len - 1 do
    total := !total + Char.code (Bytes.get data i)
  done;
  !total land 0x3fffffff

let checksum_many datas = List.fold_left (fun acc d -> (acc + checksum d) land 0x3fffffff) 0 datas
