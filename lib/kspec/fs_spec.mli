(** Abstract file-system specification (§4.4's worked example).

    "A file system can be modeled as a map from path strings to file
    content bytes."  The state is an immutable map, {!step} is a pure
    function, and directory rename is the paper's prefix-substitution
    relation.  {!Crash_safe} layers the crash-safety spec on top: a
    durable and a volatile copy, with recovery guaranteed to reach at
    least the last synced version. *)

type path = string list
(** Path components; [\[\]] is the root. *)

val path_of_string : string -> path
(** ["/a//b/"] is [\["a"; "b"\]].  Components are literal: there is no
    ["."]/[".."] resolution and no symlinks in this model. *)

val path_to_string : path -> string

val is_prefix : path -> path -> bool
val strip_prefix : path -> path -> path option
val parent : path -> path option
(** [None] for the root. *)

val basename : path -> string option

module Pathmap : Map.S with type key = path

type node =
  | File of string  (** immutable file content *)
  | Dir

type state = node Pathmap.t
(** Well-formed states bind the parent of every bound path to [Dir]; the
    root is implicitly a directory and never bound. *)

val empty : state
val equal : state -> state -> bool

type bindings = (path * node) list
(** A state listed binding by binding: what an abstraction function
    returns.  Its producers walk depth first with each directory's
    children in name order, so the list comes in {!Pathmap} key order;
    any order still denotes a state, a later entry for a path winning. *)

val of_bindings : bindings -> state
(** The state a listing denotes; a later entry for a path wins. *)

val equal_bindings : state -> bindings -> bool
(** [equal_bindings s b = equal s (of_bindings b)], decided by zipping
    [b] against [s] in key order with early exit.  The map is built only
    when [b] is out of order or repeats a path. *)

val wf : state -> bool
(** Well-formedness: every bound path has a bound (or root) Dir parent. *)

val lookup : state -> path -> node option
val is_dir : state -> path -> bool

val pp : Format.formatter -> state -> unit

(** {1 Operations} *)

type op =
  | Create of path
  | Mkdir of path
  | Write of { file : path; off : int; data : string }
  | Read of { file : path; off : int; len : int }
  | Truncate of path * int
  | Unlink of path
  | Rmdir of path
  | Rename of path * path
  | Readdir of path
  | Stat of path
  | Fsync

type value =
  | Unit
  | Data of string
  | Names of string list
  | Attr of { kind : [ `File | `Dir ]; size : int }

type result = (value, Ksim.Errno.t) Stdlib.result

val equal_result : result -> result -> bool
val pp_op : Format.formatter -> op -> unit
val pp_result : Format.formatter -> result -> unit

val step : state -> op -> state * result
(** The deterministic POSIX-lite semantics.  Failed operations leave the
    state unchanged. *)

val write_at : string -> off:int -> data:string -> string
(** Content after writing [data] at [off], zero-extending sparse gaps. *)

val read_at : string -> off:int -> len:int -> string
(** Up to [len] bytes from [off]; short reads at EOF. *)

(** {1 Crash-safety specification} *)

module Crash_safe : sig
  type cstate = {
    durable : state;  (** as of the last fsync *)
    volatile : state;  (** current, possibly unsynced *)
  }

  val init : cstate
  val step : cstate -> op -> cstate * result
  val crash : cstate -> cstate
  (** Lose everything since the last fsync. *)

  val allowed_recoveries : op list -> state list
  (** States a correct crash-safe FS may recover to after executing the
      trace and crashing: the volatile state after any prefix extending
      the last fsync (more than synced may persist, never less). *)

  val is_allowed_recovery : op list -> state -> bool
end
