(* Simulated block device: the media, and nothing volatile.

   A write lands on the media at once and [flush] only counts, so the one
   place a crash can lose a write is a [Wcache] above the device, whose
   residues are patched over this device's media [image].

   The media is a two-level table of immutable blocks: a top table of
   chunks, each holding [chunk_len] block pointers.  A write swaps a
   block's pointer instead of blitting into it, so a crash image shares
   every block it did not change, and a read hands out the block itself,
   so a mount reads an image in place.  Both levels are copy-on-write:
   [image] and [of_image] share the table, and a write while an image
   may hold it copies the top table once and each touched chunk once —
   never the whole device's pointers. *)

(* A power of two, so a block's chunk and slot are a shift and a mask;
   64 pointers keep both levels of a 4096-block device minor-heap
   sized. *)
let chunk_bits = 6
let chunk_len = 1 lsl chunk_bits

type image = string array array (* chunk -> slot -> block; the last chunk may be partial *)

type t = {
  nblocks : int;
  block_size : int;
  mutable media : image;
  mutable base : image;
      (* the table last handed out by [image] or mounted by [of_image]:
         [media] owns a top table or chunk only when it is not
         physically the one in [base] *)
  mutable reads : int;
  mutable writes : int;
  mutable flushes : int;
}

let image_nblocks img =
  match Array.length img with 0 -> 0 | n -> ((n - 1) * chunk_len) + Array.length img.(n - 1)

let init_image nblocks f =
  Array.init ((nblocks + chunk_len - 1) / chunk_len) (fun c ->
      let first = c * chunk_len in
      Array.init (min chunk_len (nblocks - first)) (fun i -> f (first + i)))

let get img blkno = img.(blkno lsr chunk_bits).(blkno land (chunk_len - 1))

(* Land one write on [top], a private copy of [base]'s top table: the
   block's chunk is copied first unless [top] already has its own. *)
let set ~base top blkno data =
  let c = blkno lsr chunk_bits in
  if top.(c) == base.(c) then top.(c) <- Array.copy base.(c);
  top.(c).(blkno land (chunk_len - 1)) <- data

let of_image ~block_size img =
  {
    nblocks = image_nblocks img;
    block_size;
    media = img;
    base = img;
    reads = 0;
    writes = 0;
    flushes = 0;
  }

let create ~nblocks ~block_size =
  let zero = String.make block_size '\000' in
  of_image ~block_size (init_image nblocks (fun _ -> zero))

let block_size dev = dev.block_size
let reads dev = dev.reads
let writes dev = dev.writes
let flushes dev = dev.flushes

let in_range dev blkno = blkno >= 0 && blkno < dev.nblocks

(* The media's own immutable block: a read copies nothing. *)
let read dev blkno =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO
  else begin
    dev.reads <- dev.reads + 1;
    Ok (get dev.media blkno)
  end

(* For the readers that may mutate what they get: a fresh [bytes]. *)
let read_copy dev blkno = Result.map Bytes.of_string (read dev blkno)

(* A whole-block write is a pointer swap; the first since [image] copies
   the top table. *)
let write dev blkno data =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO
  else if Bytes.length data <> dev.block_size then Error Ksim.Errno.EINVAL
  else begin
    dev.writes <- dev.writes + 1;
    if dev.media == dev.base then dev.media <- Array.copy dev.base;
    set ~base:dev.base dev.media blkno (Bytes.to_string data);
    Ok ()
  end

let flush dev = dev.flushes <- dev.flushes + 1

let image dev =
  dev.base <- dev.media;
  dev.media

let patch img writes =
  if writes = [] then img
  else begin
    let top = Array.copy img in
    List.iter (fun (blkno, data) -> set ~base:img top blkno data) writes;
    top
  end

let to_media img = Array.init (image_nblocks img) (fun b -> Bytes.of_string (get img b))

let snapshot_media dev = to_media dev.media

let of_media ~block_size media =
  of_image ~block_size (init_image (Array.length media) (fun b -> Bytes.to_string media.(b)))

let io dev : Io.t =
  {
    Io.nblocks = dev.nblocks;
    block_size = dev.block_size;
    read = read_copy dev;
    write = write dev;
    flush =
      (fun () ->
        flush dev;
        Ok ());
    write_fua =
      (* A write is durable as it lands, so FUA is write + flush. *)
      Some (fun blkno data -> Result.map (fun () -> flush dev) (write dev blkno data));
  }

let to_ops dev : Kspec.Axiom.block_ops =
  let fail_to_exn = function
    | Ok v -> v
    | Error e -> failwith ("blockdev: " ^ Ksim.Errno.to_string e)
  in
  {
    nblocks = dev.nblocks;
    block_size = dev.block_size;
    read = (fun blkno -> fail_to_exn (read_copy dev blkno));
    write = (fun blkno data -> fail_to_exn (write dev blkno data));
    flush = (fun () -> flush dev);
  }
