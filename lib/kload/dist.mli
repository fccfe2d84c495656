(** Heavy-tailed distributions for the load generator, all driven by an
    explicit {!Ksim.Rng.t} so draws replay exactly from the seed.

    Real multi-tenant traffic is not Poisson: think times and request
    sizes are Pareto (a few giants dominate the mass) and key popularity
    is Zipfian (a few keys take most of the traffic).  These are the
    standard storage/tenant-workload shapes (cf. YCSB's zipfian request
    distribution). *)

(** Pareto truncated to [\[xmin, xmax\]] by inverse CDF (not by
    rejection), so one RNG draw per sample and the tail mass folds into
    the bound deterministically. *)
module Bounded_pareto : sig
  type t

  val create : alpha:float -> xmin:int -> xmax:int -> t
  (** Shape [alpha] (smaller = heavier tail) over [\[xmin, xmax\]].
      @raise Invalid_argument on non-positive [alpha] or [xmin], or
      [xmax < xmin]. *)

  val draw : t -> Ksim.Rng.t -> int
  (** One draw, rounded down to an integer — think times in simulated
      ns, payload sizes in bytes. *)
end

(** Zipfian ranks over a finite key space, by precomputed inverse CDF. *)
module Zipf : sig
  type t

  val create : n:int -> unit -> t
  (** Ranks [0 .. n-1] with P(k) proportional to [1/(k+1)^1.01], the
      classic skew where the top rank takes a few percent of all
      traffic.  @raise Invalid_argument on [n <= 0]. *)

  val draw : t -> Ksim.Rng.t -> int
  (** One rank, by binary search over the cumulative table: O(log n),
    one RNG draw. *)
end
