(** The buffer cache and the 16 [buffer_head] state flags.

    The paper's §4.4 case study: buffer_head "includes 16 state flags ...
    set independently, resulting in many possible combinations of states.
    Not all of the combinations are valid."  This module reproduces the 16
    flags, states the validity rules as code, and checks them on every
    transition — the English comment turned into a specification. *)

type flag =
  | Uptodate
  | Dirty
  | Lock
  | Req
  | Mapped
  | New
  | Async_read
  | Async_write
  | Delay
  | Boundary
  | Write_io_error
  | Unwritten
  | Quiet
  | Meta
  | Prio
  | Defer_completion

val all_flags : flag list
(** All 16, in bit order. *)

module Flags : sig
  type t
  (** A set of flags (bitmask). *)

  val empty : t
  val mem : flag -> t -> bool
  val add : flag -> t -> t
  val remove : flag -> t -> t
  val of_list : flag list -> t
  val to_list : t -> flag list
end

val validate : Flags.t -> string list
(** Names of the validity rules the combination violates (empty = valid).
    Rules include dirty⇒uptodate, dirty⇒mapped, async_*⇒lock,
    unwritten excludes dirty, delay excludes mapped, prio⇒meta, … *)

val is_valid : Flags.t -> bool

type bh = private {
  blkno : int;
  mutable flags : Flags.t;
  mutable data : bytes;
  mutable refcount : int;
}

exception Invalid_state of { blkno : int; broken : string list }

type t
(** A buffer cache over a {!Blockdev.t}. *)

val create : ?check_states:bool -> Blockdev.t -> t
(** [check_states] (default true): validate flags on every transition and
    raise {!Invalid_state} on breach.  Benches ablate this. *)

val getblk : t -> int -> bh
(** Get or create the buffer for a block (no I/O); takes a reference. *)

val bread : t -> int -> bh
(** {!getblk} + read from the device if not uptodate. *)

val set_data : t -> bh -> bytes -> unit
(** Replace the buffer contents and mark dirty.  Whole blocks only. *)

val mark_dirty : t -> bh -> unit
val submit_write : t -> bh -> unit Ksim.Errno.r
(** Write one dirty buffer back to the device. *)

val sync : t -> unit
(** Write back every dirty buffer in block order, then flush the device. *)

val brelse : bh -> unit
(** Drop a reference. *)

val drop : t -> int
(** Evict clean, unreferenced buffers; returns how many went. *)

val dirty_count : t -> int
val cached_count : t -> int
val state_checks : t -> int
