(** Runtime ownership checker: restricted and explicit ownership sharing.

    Executable form of the paper's three interface models (§4.3) for
    passing memory across module boundaries without copying:

    - {b model 1} ({!transfer}): ownership moves; the caller's capability is
      revoked forever; the receiver must free.
    - {b model 2} ({!lend_exclusive}): the callee may read and write for the
      duration of the call; the caller's rights are suspended; the callee
      cannot free and loses access when the call returns.
    - {b model 3} ({!lend_shared}): caller, callee, and any other named
      readers may read for the duration of the call; nobody may write.

    Memory is shared (no payload copies).  Every access presents a
    {!Cap.t}; breaches are recorded as {!violation}s (and raised in strict
    mode).  {!Message} is the copying baseline these models are compared
    against in bench [ownership/*]. *)

type violation_kind =
  | Use_after_free
  | Double_free
  | Write_while_shared
  | Write_without_rights
  | Read_with_revoked_cap
  | Free_without_ownership
  | Free_while_lent
  | Out_of_bounds
  | Leak

val violation_kind_to_string : violation_kind -> string

type violation = {
  kind : violation_kind;
  region : int;
  culprit : string;  (** holder string of the offending capability *)
  detail : string;
}

exception Violation of violation
(** Raised on any breach when the checker is strict. *)

val pp_violation : Format.formatter -> violation -> unit

type t

val create : ?strict:bool -> unit -> t
(** [strict] (default [true]): raise {!Violation} on breach; otherwise only
    record ({!violations}), modelling latent bugs. *)

val alloc : t -> holder:string -> size:int -> Cap.t
(** Allocate a region of [size] bytes; returns the owner capability. *)

val size : t -> Cap.t -> int

val read : t -> Cap.t -> off:int -> len:int -> bytes
val write : t -> Cap.t -> off:int -> bytes -> unit
val fill : t -> Cap.t -> char -> unit

val transfer : t -> Cap.t -> to_:string -> Cap.t
(** Model 1.  Revokes the argument capability; returns the new owner's. *)

val lend_exclusive : t -> Cap.t -> to_:string -> f:(Cap.t -> 'a) -> 'a
(** Model 2.  Runs [f] with a read/write borrow; the owner's rights are
    suspended during the call and restored after, even on exception. *)

val lend_shared : t -> Cap.t -> to_:string list -> f:(Cap.t list -> 'a) -> 'a
(** Model 3.  Runs [f] with one read-only borrow per name in [to_]; the
    owner may also read during the call; all writes are violations. *)

val free : t -> Cap.t -> unit
(** Requires an owning capability on a region not currently lent. *)

val violations : t -> violation list
val violation_count : t -> int

val live_regions : t -> int list
(** Regions not yet freed, ascending. *)

val check_leaks : t -> bool
(** Record a [Leak] violation for each live region; true when none. *)
