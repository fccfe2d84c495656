(** The kernel's component registry.

    Subsystems are registered with an interface descriptor, a safety
    level, and (for mountable components) a live instance.  Callers reach
    components by name and interface only, which is what makes
    one-at-a-time replacement possible. *)

type kind =
  | File_system
  | Network
  | Block
  | Memory
  | Scheduler
  | Other of string

type entry = {
  name : string;
  kind : kind;
  level : Level.t;
  iface : Interface.t;
  loc : int;  (** implementation size, for the Figure-1 audit *)
  description : string;
  instance : Kvfs.Iface.instance option;
}

type t

type change =
  | Registered
  | Replaced
  | Rejected

exception Incompatible of string

val create : unit -> t

val register :
  t ->
  name:string ->
  kind:kind ->
  level:Level.t ->
  iface:Interface.t ->
  ?loc:int ->
  ?description:string ->
  ?instance:Kvfs.Iface.instance ->
  unit ->
  entry
(** @raise Incompatible on duplicate names or an interface that cannot
    host the claimed level. *)

val replace :
  t ->
  name:string ->
  level:Level.t ->
  iface:Interface.t ->
  ?loc:int ->
  ?description:string ->
  ?instance:Kvfs.Iface.instance ->
  unit ->
  ( entry,
    [ `Incompatible_interface of string * string
    | `Would_lower_level of Level.t * Level.t
    | `Interface_cannot_host of Level.t ] )
  Stdlib.result
(** Swap a component's implementation.  The incremental ratchet: the
    replacement must speak a compatible interface and must not lower the
    safety level. *)

val find : t -> string -> entry option
val all : t -> entry list
val by_kind : t -> kind -> entry list
val history : t -> change list
(** Every register, replace and refused replace, oldest first. *)

val level_counts : t -> (Level.t * int) list
val total_loc : t -> int
val loc_at_or_above : t -> Level.t -> int

val pp : Format.formatter -> t -> unit
