(** Deterministic named failpoints, modeled on Linux fault injection
    ([CONFIG_FAULT_INJECTION]'s [fault_attr]).

    A registry holds named sites with per-site [probability] / [interval] /
    [times] knobs.  Call sites ask {!should_fail} wherever a fault could
    strike; answers come from a per-site SplitMix64 stream derived from
    (registry seed, site name), so the fault schedule is exactly
    replayable from the seed and independent of registration order.
    A registry given a {!Ktrace} ring records every injection in it. *)

type site = {
  name : string;
  mutable enabled : bool;
  mutable probability : float;  (** chance an eligible hit injects, [0,1] *)
  mutable interval : int;  (** only every [interval]-th hit is eligible *)
  mutable times : int;  (** remaining injections; [-1] = unlimited *)
  mutable hits : int;
  mutable injected : int;
  rng : Rng.t;
}

type injection = {
  site : string;  (** the site's name *)
  hit : int;  (** the site's hit count at this injection *)
  injection : int;  (** the site's injection count, this one included *)
}
(** One injection, as {!schedule} reports it. *)

type t

val create : ?trace:injection Ktrace.t -> seed:int -> unit -> t
(** Fresh registry.  [trace] receives one {!injection} per injection;
    without one the registry records none. *)

val seed : t -> int

val register : t -> string -> site
(** Idempotent: returns the existing site or creates it disabled with
    probability 1.0, interval 1, unlimited times. *)

val configure :
  t ->
  string ->
  ?enabled:bool ->
  ?probability:float ->
  ?interval:int ->
  ?times:int ->
  unit ->
  unit
(** Set knobs on a site (registering it if needed).  Unset knobs keep
    their current value.  @raise Invalid_argument on probability outside
    [0,1] or interval < 1. *)

val disable_all : t -> unit
(** Heal: disable every site (counters and streams are kept). *)

val should_fail : t -> string -> bool
(** One hit at the named site; [true] means inject the fault now.  A hit
    injects iff the site is enabled, its times budget is not exhausted,
    the hit lands on the interval, and the site's RNG draw passes the
    probability gate.  Same as [fire t (register t name)]. *)

val fire : t -> site -> bool
(** One hit at a site handle {!register} returned for this registry:
    {!should_fail} without the name lookup, sharing the site's counters,
    RNG stream and recorded injections with every by-name hit. *)

val hits : t -> string -> int
val injected : t -> string -> int
val total_injected : t -> int

val sites : t -> site list
(** All registered sites, sorted by name. *)

val publish : t -> Kstats.t -> unit
(** Add every site's [hits]/[injected] counters into a {!Kstats} table as
    ["<site>.hits"] / ["<site>.injected"]. *)

val schedule : t -> injection list
(** The observed fault schedule: the injections retained in the
    registry's ring, in order ([[]] without a ring).  Same seed + same
    I/O sequence = identical schedule (replayability). *)
