(* SplitMix64: tiny, deterministic, splittable PRNG.  Every randomized
   component of the simulator takes an explicit [Rng.t] so that runs are
   reproducible from a seed.

   The 64-bit state lives unboxed in an 8-byte buffer and [next] is
   inlined, so a draw's arithmetic stays in registers: [int] and [bool]
   allocate nothing, [float] only its boxed result. *)

type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)

let golden = 0x9E3779B97F4A7C15L

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value always fits OCaml's 63-bit int positively. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bool t = Int64.logand (next t) 1L = 1L

let float t =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bits /. 9007199254740992.0

let split t = create (next t)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let bytes t n = Bytes.init n (fun _ -> Char.chr (int t 256))
