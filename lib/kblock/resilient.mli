(** The retrying block layer: bounded attempts, deterministic exponential
    backoff on a simulated clock, and a permanent-failure verdict once the
    budget is exhausted.

    Transient errors ([EIO], [EAGAIN], [ENOMEM]) retry up to
    [max_attempts] total attempts, sleeping
    [backoff_base * 2^(attempt-1)] simulated ns (capped at [backoff_cap])
    between attempts.  Non-transient errors fail immediately.  Exhausting
    the budget propagates the error and bumps {!permanent_failures}. *)

type t

val create :
  ?max_attempts:int ->
  ?backoff_base:int ->
  ?backoff_cap:int ->
  ?jitter:float ->
  ?seed:int ->
  Io.t ->
  t
(** Defaults: 4 attempts, 100 ns base, 10_000 ns cap, no jitter.
    [jitter] (in [0,1]) stretches each backoff sleep by up to
    [jitter * backoff] extra ns drawn from a per-instance SplitMix64
    stream seeded with [seed] (default 0), so concurrent retriers with
    distinct seeds do not retry in lockstep while {!simulated_ns} stays
    exactly replayable.
    @raise Invalid_argument on [max_attempts < 1] or jitter outside
    [0,1]. *)

val io : t -> Io.t

val write : t -> int -> bytes -> unit Ksim.Errno.r
(** Retried write.  Retrying does not strengthen the durability contract:
    a successful write is still cache-volatile until the caller flushes —
    the retry wrapper forwards the ordering obligation instead of
    discharging it (kdur R18 polices wrappers that drop it).
    @orders_after: t *)

val flush : t -> unit Ksim.Errno.r
(** Retried full barrier: on [Ok] everything previously written through
    this stack is on stable media.
    @flushes: t *)

val write_fua : t -> int -> bytes -> unit Ksim.Errno.r
(** FUA write through the same retry/backoff/accounting path as
    {!write} and {!flush} (delegates to {!Io.fua} on the base): on [Ok]
    this block — and, via the flush fallback, everything before it — is
    durable.
    @durable *)

val ops : t -> int
(** Logical operations attempted (not counting retries). *)

val retries : t -> int
(** Extra attempts beyond the first, across all ops. *)

val recovered_ops : t -> int
(** Ops that failed at least once and then succeeded. *)

val permanent_failures : t -> int
(** Ops whose retry budget was exhausted (the permanent verdict). *)

val simulated_ns : t -> int
(** Total simulated backoff time: deterministic for a given schedule. *)
