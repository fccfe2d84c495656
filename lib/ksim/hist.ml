(* HdrHistogram-lite: logarithmic buckets, 32 linear sub-buckets per
   power of two (~3% worst-case relative error), backed by one flat int
   array so [record] is branch-light enough for the load harness's
   per-operation hot path.  Exact min/max/total ride alongside so small
   histograms still report exact edges.  The array (1,888 words, a
   major-heap allocation) is made on the first value, so the many
   histograms that never record one — a supervisor per crash image —
   cost a small record. *)

let sub_bits = 5
let subs = 1 lsl sub_bits (* 32 *)
let max_exp = 58 (* covers every non-negative OCaml int *)
let nbuckets = subs + (max_exp * subs)

type t = {
  mutable buckets : int array; (* [||] until the first value *)
  mutable count : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable total : int;
}

let create () =
  { buckets = [||]; count = 0; min_v = max_int; max_v = 0; total = 0 }

let ensure_buckets t = if Array.length t.buckets = 0 then t.buckets <- Array.make nbuckets 0

let msb v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index_of v =
  if v < subs then v
  else
    let m = msb v in
    let exp = m - sub_bits in
    subs + (exp * subs) + ((v lsr exp) land (subs - 1))

(* Inclusive upper edge of the bucket holding [index]. *)
let upper_of index =
  if index < subs then index
  else
    let exp = (index - subs) / subs in
    let sub = (index - subs) mod subs in
    (((subs + sub) lsl exp) + (1 lsl exp)) - 1

let record t v =
  let v = if v < 0 then 0 else v in
  ensure_buckets t;
  t.buckets.(index_of v) <- t.buckets.(index_of v) + 1;
  t.count <- t.count + 1;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  t.total <- t.total + v

let count t = t.count
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v
let total t = t.total
let mean t = if t.count = 0 then 0.0 else float_of_int t.total /. float_of_int t.count

let percentile t p =
  if t.count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let seen = ref 0 in
    let result = ref t.max_v in
    (try
       for i = 0 to nbuckets - 1 do
         seen := !seen + t.buckets.(i);
         if !seen >= rank then begin
           result := min (upper_of i) t.max_v;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

type summary = {
  count : int;
  min : int;
  mean : float;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;
}

let summarize (t : t) =
  {
    count = t.count;
    min = min_value t;
    mean = mean t;
    max = t.max_v;
    p50 = percentile t 50.0;
    p95 = percentile t 95.0;
    p99 = percentile t 99.0;
    p999 = percentile t 99.9;
  }

let merge_into ~dst (src : t) =
  if src.count > 0 then begin
    ensure_buckets dst;
    Array.iteri (fun i n -> if n > 0 then dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
    dst.count <- dst.count + src.count;
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v;
    dst.total <- dst.total + src.total
  end

let reset t =
  t.buckets <- [||];
  t.count <- 0;
  t.min_v <- max_int;
  t.max_v <- 0;
  t.total <- 0

let pp_summary ppf s =
  Fmt.pf ppf "n=%d min=%d mean=%.0f p50=%d p95=%d p99=%d p999=%d max=%d" s.count s.min s.mean
    s.p50 s.p95 s.p99 s.p999 s.max
