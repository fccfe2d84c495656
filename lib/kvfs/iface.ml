(* The two calling conventions a file system can present to the VFS.

   [FS_OPS] is the modular, typed interface that roadmap steps 1-2
   produce: operations are the abstract ops of [Kspec.Fs_spec], results
   are proper sum types, no void pointers anywhere.

   [FS_OPS_LEGACY] is the step-0 convention Linux actually uses: lookup
   returns an error-pointer that the caller must remember to IS_ERR-check,
   and write_begin/write_end pass fs-private state as a void pointer the
   file system casts back (the paper's §4.2 examples).  [Of_legacy]
   retrofits a modular interface onto such a module — the mechanical part
   of roadmap step 1. *)

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

let instance (type f) (module F : FS_OPS with type fs = f) fs = Instance ((module F), fs)

let instance_name (Instance ((module F), _)) = F.fs_name
let instance_stage (Instance ((module F), _)) = F.stage
let instance_apply (Instance ((module F), fs)) op = F.apply fs op
let instance_interpret (Instance ((module F), fs)) = F.interpret fs

let make (type f) (module F : FS_OPS with type fs = f) () = instance (module F) (F.mkfs ())

(* A panic shim around an instance: every entry point first fires a
   failpoint (registered once, here) and, when it fires, raises a module
   panic *through* the modular interface — exactly the oops the
   supervisor exists to contain.  The wrapped instance is the closure
   state, so a remake factory that re-wraps a fresh inner instance gives
   the supervisor a rebootable panicky module. *)
let panicky ?(site = "module.panic") ~fp inner =
  let panic = Ksim.Failpoint.register fp site in
  let module P = struct
    type fs = unit

    let fs_name = instance_name inner ^ "+panicky"
    let stage = instance_stage inner
    let mkfs () = ()

    let apply () op =
      if Ksim.Failpoint.fire fp panic then raise (Ksim.Supervisor.Module_panic site);
      instance_apply inner op

    let interpret () = instance_interpret inner
  end in
  instance (module P) ()

(* The unsafe, C-shaped convention --------------------------------------- *)

module type FS_OPS_LEGACY = sig
  type fs

  val fs_name : string
  val mkfs : unit -> fs

  val lookup : fs -> string -> Ksim.Frame.Handle.t
  (** Returns an inode handle, or an error encoded in pointer space. *)

  val create : fs -> string -> kind:Vtypes.file_kind -> Ksim.Frame.Handle.t

  val write_begin : fs -> string -> off:int -> Ksim.Frame.Handle.t
  (** Returns fs-private void* state to be passed back to [write_end]. *)

  val write_end : fs -> Ksim.Frame.Priv.t -> data:string -> int
  (** Casts the private state back; returns bytes written or a negative
      errno, C style. *)

  val read : fs -> string -> off:int -> len:int -> (string, int) Stdlib.result
  (** [Error] carries a negative errno. *)

  val unlink : fs -> string -> int
  (** 0 or a negative errno. *)

  val rmdir : fs -> string -> int
  val rename : fs -> string -> string -> int
  val readdir : fs -> string -> (string list, int) Stdlib.result
  val stat : fs -> string -> (Vtypes.file_kind * int, int) Stdlib.result
  val truncate : fs -> string -> int -> int
  val fsync : fs -> int
  val interpret : fs -> Kspec.Fs_spec.bindings
end

let errno_of_neg code =
  match Ksim.Errno.of_code (-code) with Some e -> e | None -> Ksim.Errno.EINVAL

let of_ret code : Kspec.Fs_spec.result =
  if code >= 0 then Ok Kspec.Fs_spec.Unit else Error (errno_of_neg code)

(* Retrofit: wrap a legacy module behind the modular interface.  All the
   IS_ERR-checking and errno decoding happens here, once, instead of at
   every call site. *)
module Of_legacy (L : FS_OPS_LEGACY) : FS_OPS with type fs = L.fs = struct
  type fs = L.fs

  let fs_name = L.fs_name ^ "+modular"
  let stage = 1
  let mkfs = L.mkfs

  let apply fs (op : Kspec.Fs_spec.op) : Kspec.Fs_spec.result =
    let open Kspec.Fs_spec in
    let path p = path_to_string p in
    match op with
    | Create p -> (
        match Ksim.Frame.Handle.result (L.create fs (path p) ~kind:Vtypes.Regular) with
        | Ok _ -> Ok Unit
        | Error e -> Error e)
    | Mkdir p -> (
        match Ksim.Frame.Handle.result (L.create fs (path p) ~kind:Vtypes.Directory) with
        | Ok _ -> Ok Unit
        | Error e -> Error e)
    | Write { file; off; data } -> (
        match Ksim.Frame.Handle.result (L.write_begin fs (path file) ~off) with
        | Error e -> Error e
        | Ok private_data ->
            let ret = L.write_end fs private_data ~data in
            if ret >= 0 then Ok Unit else Error (errno_of_neg ret))
    | Read { file; off; len } -> (
        match L.read fs (path file) ~off ~len with
        | Ok data -> Ok (Data data)
        | Error code -> Error (errno_of_neg code))
    | Truncate (p, size) -> of_ret (L.truncate fs (path p) size)
    | Unlink p -> of_ret (L.unlink fs (path p))
    | Rmdir p -> of_ret (L.rmdir fs (path p))
    | Rename (p, q) -> of_ret (L.rename fs (path p) (path q))
    | Readdir p -> (
        match L.readdir fs (path p) with
        | Ok names -> Ok (Names names)
        | Error code -> Error (errno_of_neg code))
    | Stat p -> (
        match L.stat fs (path p) with
        | Ok (Vtypes.Regular, size) -> Ok (Attr { kind = `File; size })
        | Ok (Vtypes.Directory, _) -> Ok (Attr { kind = `Dir; size = 0 })
        | Error code -> Error (errno_of_neg code))
    | Fsync -> of_ret (L.fsync fs)

  let interpret = L.interpret
end
