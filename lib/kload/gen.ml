type op = {
  kind : Spec.kind;
  key : int;
  size : int;
  think_ns : int;
}

type tenant = {
  id : int;
  class_ix : int;
  rng : Ksim.Rng.t;
}

(* A weighted choice, as arrays: one [Rng.int] over the total weight,
   then a scan of the cumulative weights. *)
type 'a weighted = {
  items : 'a array;
  weights : int array;
  total : int;
}

let weighted pairs =
  let weights = Array.of_list (List.map snd pairs) in
  { items = Array.of_list (List.map fst pairs); weights; total = Array.fold_left ( + ) 0 weights }

let pick rng w =
  let r = Ksim.Rng.int rng w.total in
  let i = ref 0 and acc = ref w.weights.(0) in
  while r >= !acc do
    incr i;
    acc := !acc + w.weights.(!i)
  done;
  w.items.(!i)

type t = {
  spec : Spec.t;
  tenants : tenant array;
  mixes : Spec.kind weighted array; (* by class index *)
  zipf : Dist.Zipf.t;
  size : Dist.Bounded_pareto.t;
}

let think = Dist.Bounded_pareto.create ~alpha:1.3 ~xmin:200 ~xmax:200_000

(* Per-tenant stream: the registry seed scrambled with the tenant id.
   SplitMix64 decorrelates nearby seeds, so consecutive ids give
   independent-looking streams while staying a pure function of
   (seed, id). *)
let tenant_rng ~seed id =
  Ksim.Rng.create
    Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int (id + 1)))

let plan spec ~seed =
  let classes = weighted (List.mapi (fun i c -> (i, c.Spec.weight)) spec.Spec.classes) in
  let tenants =
    Array.init spec.Spec.tenants (fun id ->
        let rng = tenant_rng ~seed id in
        { id; class_ix = pick rng classes; rng })
  in
  {
    spec;
    tenants;
    mixes = Array.of_list (List.map (fun c -> weighted c.Spec.mix) spec.Spec.classes);
    zipf = Dist.Zipf.create ~n:spec.Spec.keyspace ();
    size =
      Dist.Bounded_pareto.create ~alpha:1.2 ~xmin:Spec.min_payload ~xmax:spec.Spec.payload;
  }

let tenants t = t.tenants

(* Fixed draw count per op — kind, key, size, think — so a tenant's
   stream position depends only on how many ops it has generated. *)
let next_op t tenant =
  let kind = pick tenant.rng t.mixes.(tenant.class_ix) in
  let key = Dist.Zipf.draw t.zipf tenant.rng in
  let size = Dist.Bounded_pareto.draw t.size tenant.rng in
  let think_ns = Dist.Bounded_pareto.draw think tenant.rng in
  { kind; key; size; think_ns }

let class_histogram t =
  List.mapi
    (fun i c ->
      let n =
        Array.fold_left (fun acc tn -> if tn.class_ix = i then acc + 1 else acc) 0 t.tenants
      in
      (c.Spec.cname, n))
    t.spec.Spec.classes
