(** Deterministic cooperative scheduler (OCaml 5 effect handlers).

    Simulated kernel threads yield explicitly; the scheduler interleaves
    them round-robin or by a seeded RNG, making concurrency bugs exactly
    reproducible.  Blocking primitives ({!Klock.acquire}) spin by yielding,
    so a lost wakeup shows up as a {!Livelock} rather than a hang. *)

type t
(** A scheduler instance. *)

type failure = {
  failed_tid : int;
  failed_name : string;
}

exception Livelock of { steps : int }
(** Raised by {!run} when the step budget is exhausted — e.g. all threads
    spin on a lock whose holder never releases it. *)

exception Not_in_scheduler

val create : ?seed:int -> ?max_steps:int -> unit -> t
(** [create ()] schedules round-robin; [create ~seed ()] picks the next
    runnable thread with a SplitMix64 stream, exploring one deterministic
    interleaving per seed.  [max_steps] (default 1,000,000) bounds the total
    number of scheduling steps. *)

val spawn : t -> name:string -> (unit -> unit) -> int
(** Register a thread; returns its tid (>= 1).  Threads run only inside
    {!run}. *)

val run : t -> unit
(** Run until every thread finished (or failed).  Thread exceptions are
    collected in {!failures}, not re-raised. *)

val yield : unit -> unit
(** Cooperative scheduling point.  A no-op outside a scheduler. *)

val self : unit -> int
(** Tid of the running thread; [0] outside any scheduler. *)

val failures : t -> failure list
(** Threads that terminated with an exception, in spawn-completion order. *)

val explore :
  ?seeds:int ->
  spawn_all:(t -> unit) ->
  observe:(failure list -> 'a) ->
  unit ->
  ('a * int) list
(** Run the same concurrent program under [seeds] (default 32) seeded
    schedules and tally the distinct outcomes [observe] extracts.  A
    single outcome means the program is insensitive to interleaving; more
    than one exhibits a race. *)
