(** Capability tokens: runtime witnesses of memory-access rights.

    Ownership-safe interfaces (roadmap step 3) pass capabilities instead of
    raw pointers.  A capability names a region, a sharing {!mode}, and a
    holder; {!Checker} validates every access against the region's current
    sharing state. *)

type mode =
  | Owner  (** full rights: read, write, free, lend *)
  | Exclusive_borrow  (** read + write until the call returns (model 2) *)
  | Shared_borrow  (** read only until the call returns (model 3) *)

type t = private {
  cap_id : int;
  region_id : int;
  mode : mode;
  holder : string;  (** the module or thread holding this capability *)
  mutable revoked : bool;
}

val make : region_id:int -> mode:mode -> holder:string -> t

val revoke : t -> unit
(** Invalidate the capability (used by the checker during lends and on
    transfer/free). *)

val restore : t -> unit
val is_valid : t -> bool
val pp : Format.formatter -> t -> unit
