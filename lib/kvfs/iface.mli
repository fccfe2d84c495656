(** The two calling conventions a file system can present to the VFS.

    {!FS_OPS} is the modular, typed interface roadmap steps 1–2 produce:
    abstract operations, proper sum-type results, no void pointers.

    {!FS_OPS_LEGACY} is the step-0 convention Linux actually uses —
    error-pointer returns the caller must IS_ERR-check and void-pointer
    private data between [write_begin]/[write_end] (§4.2).  {!Of_legacy}
    retrofits the modular interface onto such a module: the mechanical
    part of roadmap step 1. *)

module type FS_OPS = sig
  type fs

  val fs_name : string

  val stage : int
  (** Roadmap stage: 0 unsafe, 1 modular, 2 type safe, 3 ownership safe,
      4 verified. *)

  val mkfs : unit -> fs
  val apply : fs -> Kspec.Fs_spec.op -> Kspec.Fs_spec.result
  val interpret : fs -> Kspec.Fs_spec.bindings
end

type instance = Instance : (module FS_OPS with type fs = 'f) * 'f -> instance
(** An FS implementation packaged with one mounted state. *)

val instance : (module FS_OPS with type fs = 'f) -> 'f -> instance
val make : (module FS_OPS with type fs = 'f) -> unit -> instance
(** [make (module F) ()] packages a freshly made file system. *)

val panicky : ?site:string -> fp:Ksim.Failpoint.t -> instance -> instance
(** Wrap an instance so every operation first consults failpoint [site]
    (default ["module.panic"]) and raises {!Ksim.Supervisor.Module_panic}
    through the modular interface when it fires — the deterministic
    oops generator the supervisor is tested against. *)

val instance_name : instance -> string
val instance_stage : instance -> int
val instance_apply : instance -> Kspec.Fs_spec.op -> Kspec.Fs_spec.result
val instance_interpret : instance -> Kspec.Fs_spec.bindings

module type FS_OPS_LEGACY = sig
  type fs

  val fs_name : string
  val mkfs : unit -> fs

  val lookup : fs -> string -> Ksim.Frame.Handle.t
  val create : fs -> string -> kind:Vtypes.file_kind -> Ksim.Frame.Handle.t
  val write_begin : fs -> string -> off:int -> Ksim.Frame.Handle.t
  val write_end : fs -> Ksim.Frame.Priv.t -> data:string -> int
  val read : fs -> string -> off:int -> len:int -> (string, int) Stdlib.result
  val unlink : fs -> string -> int
  val rmdir : fs -> string -> int
  val rename : fs -> string -> string -> int
  val readdir : fs -> string -> (string list, int) Stdlib.result
  val stat : fs -> string -> (Vtypes.file_kind * int, int) Stdlib.result
  val truncate : fs -> string -> int -> int
  val fsync : fs -> int
  val interpret : fs -> Kspec.Fs_spec.bindings
end

val errno_of_neg : int -> Ksim.Errno.t
(** Decode a C-style negative return ([EINVAL] for unknown codes). *)

module Of_legacy (L : FS_OPS_LEGACY) : FS_OPS with type fs = L.fs
