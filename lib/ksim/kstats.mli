(** Named monotonic counters and latency histograms for instrumentation
    and audits. *)

type t

val create : unit -> t
val incr : ?by:int -> t -> string -> unit
val get : t -> string -> int
(** 0 for counters never incremented. *)

val hist : t -> string -> Hist.t
(** Find-or-create the named histogram. *)

val observe : t -> string -> int -> unit
(** Record one value into the named histogram. *)

(** {1 Handles}

    A hot path resolves a name once and bumps the handle: no string is
    built or hashed per event.  A handle joins the table at its first
    bump (and again at its first bump after {!reset}), so a handle that
    is never bumped leaves {!snapshot} unchanged, and bumping it reads
    exactly like {!incr} / {!observe} by name. *)

type counter
type histogram

val counter : t -> string -> counter
val bump : ?by:int -> counter -> unit
val histogram : t -> string -> histogram
val record : histogram -> int -> unit

val hists : t -> (string * Hist.t) list
(** All histograms, sorted by name. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name.  Histograms appear as derived entries
    ([<name>#count], [#min], [#mean], [#p50], [#p99], [#max]) so
    snapshots carry percentile aggregates. *)

type snapshot = (string * int) list
(** A point-in-time copy of every counter, sorted by name. *)

val snapshot : t -> snapshot

val diff : before:snapshot -> after:snapshot -> (string * int) list
(** Per-counter growth between two snapshots, sorted by name; counters
    that did not move are omitted, so tests can assert exact per-phase
    deltas instead of absolute values. *)

val delta : before:snapshot -> after:snapshot -> string -> int
(** Growth of one named counter between two snapshots (0 if absent). *)

val reset : t -> unit
