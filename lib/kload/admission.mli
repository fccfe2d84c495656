(** Per-tenant admission control with bounded queues and graceful
    degradation — the overload/backpressure layer.

    Time is the harness's simulated clock, divided into fixed windows.
    Each window admits at most [capacity] operations kernel-wide and at
    most [per_tenant_cap] per tenant (the bounded per-tenant queue).
    Excess demand accumulates as {e backlog} at window rollover;
    backlog crossing [hi_degrade] flips the system to [Reads_only]
    (mutations shed with [EAGAIN]), crossing [hi_reject] to [Rejecting]
    (everything sheds), and draining below [low_water] returns to
    [Accepting] — a hysteresis band, so the mode does not flap at the
    threshold. *)

type mode =
  | Accepting
  | Reads_only
  | Rejecting

val mode_name : mode -> string

type config = {
  window_ns : int;  (** window length on the simulated clock *)
  capacity : int;  (** kernel-wide admits per window *)
  per_tenant_cap : int;  (** admits per tenant per window (bounded queue) *)
  hi_degrade : int;  (** backlog threshold entering [Reads_only] *)
  hi_reject : int;  (** backlog threshold entering [Rejecting] *)
  low_water : int;  (** backlog threshold returning to [Accepting] *)
}

val config_for : tenants:int -> config
(** A config scaled so a population of [tenants] sheds under bursts but
    drains between them. *)

type decision =
  | Admit
  | Shed  (** refused with [EAGAIN]: queue bound or overload mode *)

type t

val create : ?config:config -> tenants:int -> unit -> t

val offer : t -> now:int -> tenant:int -> read_only:bool -> decision
(** One operation arriving at simulated time [now].  [read_only] ops are
    still admitted in [Reads_only] mode. *)

val mode : t -> mode
val backlog : t -> int
val shed : t -> int
val shed_of_tenant : t -> int -> int

val transitions : t -> (int * mode) list
(** Mode changes as [(window start ns, new mode)], oldest first —
    the degraded-mode log the acceptance criteria ask for. *)
