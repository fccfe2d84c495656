(** The seeded operation generator: turns a {!Spec.t} plus one integer
    seed into per-tenant operation streams.

    Each tenant owns a private SplitMix64 stream derived from
    [(seed, tenant id)] — same derivation idea as
    {!Ksim.Failpoint}'s per-site streams — so a tenant's sequence of
    (kind, key, size, think) draws is a pure function of the seed and
    its id, independent of every other tenant and of scheduling order.
    Every generated op consumes a {e fixed} number of RNG draws, so the
    streams stay aligned no matter which kinds come out. *)

type op = {
  kind : Spec.kind;
  key : int;  (** durable key rank (Zipf over the spec key space) *)
  size : int;  (** payload bytes (bounded Pareto up to the spec ceiling) *)
  think_ns : int;  (** pre-op think time, simulated ns (bounded Pareto) *)
}

type tenant = {
  id : int;
  class_ix : int;  (** index into the spec's class list *)
  rng : Ksim.Rng.t;  (** the tenant's private stream; consumed by {!next_op} *)
}

type t

val plan : Spec.t -> seed:int -> t
(** Build the tenant population: class assignment is each tenant's first
    private draw, weighted by the class weights. *)

val tenants : t -> tenant array

val next_op : t -> tenant -> op
(** The tenant's next operation (consumes its stream). *)

val class_histogram : t -> (string * int) list
(** Tenants per class, in spec order — for reports. *)
