(* Heavy-tailed draws by inverse CDF: one [Rng.float] per sample, no
   rejection loops, so the number of RNG draws per generated operation
   is fixed and the per-tenant streams stay aligned across replays. *)

(* Inverse CDF of the Pareto conditioned on [x <= xmax]: truncation by
   construction rather than by resampling.  The constants [xmin ** alpha],
   [xmax ** alpha], their product and [-1 / alpha] are computed once, so
   a draw costs one [**]. *)
module Bounded_pareto = struct
  type t = {
    xmin : int;
    xmax : int;
    l : float;
    h : float;
    hl : float;
    exponent : float;
  }

  let create ~alpha ~xmin ~xmax =
    if alpha <= 0.0 || xmin <= 0 || xmax < xmin then invalid_arg "Dist.Bounded_pareto.create";
    let l = float_of_int xmin ** alpha and h = float_of_int xmax ** alpha in
    { xmin; xmax; l; h; hl = h *. l; exponent = -1.0 /. alpha }

  let draw t rng =
    let u = Ksim.Rng.float rng in
    let x = (-.((u *. t.h) -. (u *. t.l) -. t.h) /. t.hl) ** t.exponent in
    min t.xmax (max t.xmin (int_of_float x))
end

module Zipf = struct
  type t = {
    n : int;
    cdf : float array; (* cdf.(k) = P(rank <= k), cdf.(n-1) = 1.0 *)
  }

  let create ~n () =
    if n <= 0 then invalid_arg "Dist.Zipf.create";
    let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** 1.01)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    let cdf =
      Array.map
        (fun wk ->
          acc := !acc +. (wk /. total);
          !acc)
        w
    in
    cdf.(n - 1) <- 1.0;
    { n; cdf }

  let draw t rng =
    let u = Ksim.Rng.float rng in
    (* First index with cdf.(i) > u. *)
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end
