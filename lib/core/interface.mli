(** Modular interface descriptors (§3 Summary, §4.1).

    A descriptor names an interface, its operations, the highest roadmap
    level it can host, and — for ownership-safe interfaces — the explicit
    per-operation sharing contract the checker enforces. *)

type op_descr = {
  op_name : string;
  sharing : Ownership.Contract.op option;
      (** explicit sharing contract; required from [Ownership_safe] up *)
}

type t = {
  iface_name : string;
  version : int;
  supports : Level.t;  (** highest roadmap step this interface can host *)
  ops : op_descr list;
}

val op : ?sharing:Ownership.Contract.op -> string -> op_descr
val v : name:string -> version:int -> supports:Level.t -> op_descr list -> t
val find_op : t -> string -> op_descr option

val compatible : provided:t -> required:t -> bool
(** Same interface family, version not older, every required op offered. *)

val admits : t -> Level.t -> bool
(** Can a module behind this interface reach [level]?  Ownership-safe and
    verified modules additionally require explicit sharing contracts on
    every operation. *)

val fs_interface : t
(** The file-system interface every mounted FS implements, with its
    explicit sharing contract. *)
