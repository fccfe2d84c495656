(** The oops firewall and microreboot engine for supervised module
    boundaries.

    A supervisor guards one module instance (a mounted file system, a
    block device stack, a socket layer).  Calls into the module run
    inside {!call}, which converts any escaping exception — a simulated
    oops — into an [Errno] result instead of unwinding the kernel, and
    trips the module into a shadow-driver-style recovery:

    {v Healthy -> Oopsed -> Restarting -> Healthy v}

    escalating to [Failed] (degraded mode) once the bounded restart
    budget is exhausted.  Restarts wait out a deterministic exponential
    backoff on the supervisor's simulated clock (the clock advances
    [op_cost] ns per supervised call, so the quiesce window is measured
    in calls, not wall time): calls that arrive while the module is down
    abort with [EINTR], the first call past the backoff deadline runs
    the registered {!restart} function (e.g. a journal-replay remount)
    and, on success, bumps the {e epoch}.

    Epochs make recovery visible to handle holders: every handle minted
    against the module records the epoch of the instance that minted it,
    and {!validate} rejects stale-epoch handles with [ESTALE]
    deterministically rather than letting them touch rebuilt state.

    Oopses, restarts and escalations are counted ({!oopses},
    {!restarts}, {!escalations}), and lifecycle transitions go to the
    {!set_observer} callback.  Live counters ([supervisor.oopses],
    [.restarts], [.stale_handles], [.escalations], [.eintr_aborted],
    [.degraded_calls]) land in the optional [stats] table as they
    happen. *)

exception Module_panic of string
(** The simulated oops a fault-injected module raises through its entry
    point (the [F_module_panic] fault class). *)

type state =
  | Healthy
  | Oopsed  (** an oops struck; waiting out the restart backoff *)
  | Restarting  (** the restart function is running right now *)
  | Failed  (** restart budget exhausted; degraded mode, permanent *)

val state_to_string : state -> string

type policy = {
  restart_budget : int;  (** restarts before escalating to [Failed] *)
  backoff_base : int;  (** simulated ns before the 1st restart attempt *)
  backoff_cap : int;  (** backoff ceiling, simulated ns *)
  op_cost : int;  (** simulated ns the clock advances per {!call} *)
}

val default_policy : policy
(** 3 restarts, 200 ns base, 5_000 ns cap, 100 ns per call. *)

type t

val create :
  ?policy:policy ->
  ?stats:Kstats.t ->
  ?restart:(unit -> unit) ->
  name:string ->
  unit ->
  t
(** A healthy supervisor at epoch 0.  [restart] rebuilds the module's
    instance state (remount, reset) and raises if it cannot; a raise
    counts as a failed restart.  Without one every oops escalates
    straight to [Failed]. *)

val set_restart : t -> (unit -> unit) -> unit
(** Install or replace the restart function (needed when the supervised
    wrapper can only be built after the supervisor exists). *)

val set_observer : t -> (state -> state -> unit) -> unit
(** Observe lifecycle transitions (old state, new state). *)

val state : t -> state
val epoch : t -> int
(** Generation of the live instance; bumped by every successful
    restart. *)

val call : t -> (unit -> 'a Errno.r) -> 'a Errno.r
(** Run one supervised operation.  Advances the simulated clock by
    [op_cost]; then:
    - [Failed]: [EIO] (degraded mode) without running [f];
    - [Oopsed] before the backoff deadline (or [Restarting]): [EINTR];
    - [Oopsed] past the deadline: microreboot first, then run [f] if it
      succeeded;
    - [Healthy]: run [f]; an escaping exception is contained to [EIO],
      counted as an oops, and trips the state machine to [Oopsed]. *)

val call_minted : t -> minted:int -> (unit -> 'a Errno.r) -> 'a Errno.r
(** [call] for an operation that arrives through a handle minted at
    epoch [minted]: the one place a supervised layer checks its
    handles.  The epoch is validated inside the containment, after any
    deferred microreboot [call] performs first, so a handle minted
    before an oops answers [ESTALE] (counted) and never reaches the
    rebuilt instance, not even on the call that performs the reboot. *)

val validate : t -> int -> unit Errno.r
(** [validate t handle_epoch] is [Ok ()] iff the handle was minted by
    the live generation; [ESTALE] (counted) otherwise.  Degraded-mode
    policy for current-epoch handles under [Failed] is the wrapping
    subsystem's choice, not decided here. *)

val oopses : t -> int
val restarts : t -> int
(** Restart attempts, failed ones included; the live
    [supervisor.restarts] counter counts the same.  Completed
    microreboots are [supervisor.recovery_ns#count]. *)

val escalations : t -> int
val stale_rejected : t -> int
val clock : t -> int
(** Simulated ns elapsed across all supervised calls and backoffs. *)

val last_recovery_ns : t -> int
(** Oops-to-healthy latency of the most recent completed microreboot on
    the simulated clock (0 if none yet). *)

val total_recovery_ns : t -> int

val recovery : t -> Hist.summary
(** Min/mean/max/percentile aggregation of the oops-to-healthy latency
    over {e all} completed microreboots (empty summary if none yet).
    Each latency is also observed live into the [stats] table's
    ["supervisor.recovery_ns"] histogram, so {!Kstats.snapshot} carries
    the aggregates. *)

val recovery_hist : t -> Hist.t
(** The underlying histogram (e.g. to merge across supervisors). *)

val pp : Format.formatter -> t -> unit
