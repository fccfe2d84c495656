(** Fixed-resolution latency histograms (HdrHistogram-lite).

    Values are non-negative integers (simulated nanoseconds).  Buckets
    are logarithmic with 32 linear sub-buckets per power of two, so any
    recorded value is representable within ~3% while the whole structure
    stays a flat int array — cheap enough to live on the per-op hot path
    of the load harness.  Everything is deterministic: the same value
    sequence produces the identical histogram, so percentile outputs are
    replayable from a seed. *)

type t

val create : unit -> t
(** An empty histogram, in a few words: the bucket array is allocated by
    the first {!record} (or {!merge_into} from a non-empty source) and
    dropped again by {!reset}. *)

val record : t -> int -> unit
(** Record one value (negative values are clamped to 0). *)

val count : t -> int
val min_value : t -> int
(** Exact minimum recorded value (0 when empty). *)

val max_value : t -> int
(** Exact maximum recorded value (0 when empty). *)

val total : t -> int
(** Exact sum of all recorded values. *)

val mean : t -> float
(** 0.0 when empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0,100]: an upper bound on the value at
    rank [ceil (p/100 * count)] — the top edge of the bucket holding that
    rank, clamped to the exact observed maximum.  0 when empty. *)

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

val summarize : t -> summary
val merge_into : dst:t -> t -> unit
(** Add every bucket of the source into [dst] (min/max/total folded in). *)

val reset : t -> unit
val pp_summary : Format.formatter -> summary -> unit
