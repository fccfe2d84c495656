(** Simulated kernel locks with lock-discipline checking.

    Locks are cooperative: {!acquire} spins by yielding to the
    {!Kthread} scheduler.  {!Guarded} cells attach a protecting lock to a
    piece of shared state and record every access made without holding it —
    the runtime analogue of the [i_size]/[i_lock] "maybe protected" pattern
    the paper highlights. *)

exception Self_deadlock of string
(** The current thread (or the non-scheduled main thread) would block on a
    lock that can never be released. *)

exception Not_holder of string
(** Released a lock the current thread does not hold. *)

exception Data_race of { cell : string; lock : string }
(** Raised by strict {!Guarded} cells on unlocked access. *)

type t

val create : ?lockdep:Lockdep.t -> name:string -> unit -> t
(** With [lockdep], every acquisition/release is reported to the
    lock-order validator. *)

val acquire : t -> unit
(** Block (by yielding) until the lock is free, then take it.
    @raise Self_deadlock on re-acquisition by the holder. *)

val try_acquire : t -> bool
(** Non-blocking acquire. @raise Self_deadlock on re-acquisition. *)

val release : t -> unit
(** @raise Not_holder when the caller does not hold the lock. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock l f] runs [f] holding [l], releasing on exception. *)

val held : t -> bool
val held_by_self : t -> bool
val contentions : t -> int
(** Number of acquisitions that had to wait at least once. *)

(** Shared state annotated with its protecting lock. *)
module Guarded : sig
  type 'a cell

  val create : ?strict:bool -> lock:t -> name:string -> 'a -> 'a cell
  (** With [strict] (default [false]) unlocked accesses raise {!Data_race};
      otherwise they are counted ({!races}), like a real race that
      testing may or may not catch. *)

  val get : 'a cell -> 'a
  val set : 'a cell -> 'a -> unit

  val unsafe_get : 'a cell -> 'a
  (** The "C" accessor: reads without any discipline check, modelling code
      paths that simply forget the lock.  Never counted as a race. *)

  val races : 'a cell -> int
  (** Unlocked accesses observed through {!get}/{!set}. *)
end
