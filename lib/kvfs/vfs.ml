(* The VFS proper: a mount table dispatching abstract operations to
   mounted file systems strictly through the modular interface.

   "Callers of any module must only reference the modular interface and
   cannot directly depend on any specific implementation" — this is that
   interface.  The cost of the indirection relative to a direct call is
   measured by bench [modularity/*].

   A mount may additionally be *supervised*: given a [remake] factory,
   the mount gets a [Ksim.Supervisor] and every dispatch runs inside its
   oops firewall.  An exception escaping the file system (a simulated
   oops) becomes an [EIO] result instead of unwinding the kernel; the
   mount quiesces (in-flight calls drain with [EINTR] on the simulated
   clock), then microreboots by replacing the instance with [remake ()]
   — for a journaled FS that factory is a remount, i.e. journal replay.
   Each successful reboot bumps the mount epoch; handles minted against
   a dead generation are refused with [ESTALE] (see {!validate_epoch}
   and [File_ops]).  A mount whose restart budget is exhausted degrades:
   reads are still served from the last instance, mutations fail [EIO]. *)

type mount = {
  mount_point : Kspec.Fs_spec.path;
  mutable fs : Iface.instance;
  sup : Ksim.Supervisor.t option;
}

type t = { mutable mounts : mount list (* longest mount point first *) }

let create () = { mounts = [] }

let mounts t = List.map (fun m -> (m.mount_point, Iface.instance_name m.fs)) t.mounts

let mount t ~at ?remake ?policy ?stats fs =
  if List.exists (fun m -> m.mount_point = at) t.mounts then Error Ksim.Errno.EBUSY
  else begin
    let sup =
      match remake with
      | None -> None
      | Some _ ->
          Some (Ksim.Supervisor.create ?policy ?stats ~name:(Iface.instance_name fs) ())
    in
    let m = { mount_point = at; fs; sup } in
    (* The real restart function needs the mount record: swap in the
       freshly remade instance (journal replay happens inside the
       factory for block-backed file systems). *)
    (match (sup, remake) with
    | Some s, Some factory ->
        Ksim.Supervisor.set_restart s (fun () -> m.fs <- factory ())
    | _ -> ());
    t.mounts <-
      List.sort
        (fun a b -> compare (List.length b.mount_point) (List.length a.mount_point))
        (m :: t.mounts);
    Ok ()
  end

let umount t ~at =
  if List.exists (fun m -> m.mount_point = at) t.mounts then begin
    t.mounts <- List.filter (fun m -> m.mount_point <> at) t.mounts;
    Ok ()
  end
  else Error Ksim.Errno.EINVAL

let resolve t path =
  List.find_map
    (fun m ->
      match Kspec.Fs_spec.strip_prefix m.mount_point path with
      | Some rest -> Some (m, rest)
      | None -> None)
    t.mounts

let supervisor_at t path =
  match resolve t path with Some (m, _) -> m.sup | None -> None

let supervisors t =
  List.filter_map (fun m -> Option.map (fun s -> (m.mount_point, s)) m.sup) t.mounts

let epoch_at t path =
  match resolve t path with
  | Some ({ sup = Some s; _ }, _) -> Ksim.Supervisor.epoch s
  | Some ({ sup = None; _ }, _) | None -> 0

let validate_epoch t path handle_epoch =
  match resolve t path with
  | Some ({ sup = Some s; _ }, _) -> Ksim.Supervisor.validate s handle_epoch
  | Some ({ sup = None; _ }, _) -> Ok ()
  | None -> Error Ksim.Errno.ENOENT

let is_read_only_op : Kspec.Fs_spec.op -> bool = function
  | Read _ | Readdir _ | Stat _ -> true
  | _ -> false

(* One dispatch through a mount's firewall.  Unsupervised mounts call
   straight through, as before.  A [Failed] (escalated) mount serves
   reads from its last instance — degraded reads-only mode — with a
   belt-and-braces containment of its own, and refuses mutations.

   [handle_epoch] is the generation stamped on the handle the operation
   came through (an fd in [File_ops]); [Ksim.Supervisor.call_minted]
   checks it. *)
let dispatch_mount ?handle_epoch m (op : Kspec.Fs_spec.op) : Kspec.Fs_spec.result =
  match m.sup with
  | None -> Iface.instance_apply m.fs op
  | Some sup -> (
      let ( let* ) = Ksim.Errno.( let* ) in
      if Ksim.Supervisor.state sup = Ksim.Supervisor.Failed && is_read_only_op op then
        let* () =
          match handle_epoch with Some epoch -> Ksim.Supervisor.validate sup epoch | None -> Ok ()
        in
        (try Iface.instance_apply m.fs op with _ -> Error Ksim.Errno.EIO)
      else
        match handle_epoch with
        | Some minted ->
            Ksim.Supervisor.call_minted sup ~minted (fun () -> Iface.instance_apply m.fs op)
        | None -> Ksim.Supervisor.call sup (fun () -> Iface.instance_apply m.fs op))

(* Rebase an operation into the target file system's namespace.  Rename
   across mounts is refused with EXDEV, like the real syscall. *)
let apply_gen ?handle_epoch t (op : Kspec.Fs_spec.op) : Kspec.Fs_spec.result =
  let open Kspec.Fs_spec in
  let dispatch path make_op =
    match resolve t path with
    | None -> Error Ksim.Errno.ENOENT
    | Some (m, rest) -> dispatch_mount ?handle_epoch m (make_op rest)
  in
  match op with
  | Create p -> dispatch p (fun rest -> Create rest)
  | Mkdir p -> dispatch p (fun rest -> Mkdir rest)
  | Write { file; off; data } -> dispatch file (fun file -> Write { file; off; data })
  | Read { file; off; len } -> dispatch file (fun file -> Read { file; off; len })
  | Truncate (p, size) -> dispatch p (fun rest -> Truncate (rest, size))
  | Unlink p -> dispatch p (fun rest -> Unlink rest)
  | Rmdir p -> dispatch p (fun rest -> Rmdir rest)
  | Rename (src, dst) -> (
      match (resolve t src, resolve t dst) with
      | Some (m1, r1), Some (m2, r2) when m1.mount_point = m2.mount_point ->
          dispatch_mount ?handle_epoch m1 (Rename (r1, r2))
      | Some _, Some _ -> Error Ksim.Errno.EXDEV
      | None, _ | _, None -> Error Ksim.Errno.ENOENT)
  | Readdir p -> dispatch p (fun rest -> Readdir rest)
  | Stat p -> dispatch p (fun rest -> Stat rest)
  | Fsync ->
      (* fsync fans out to every mounted file system. *)
      List.fold_left
        (fun acc m ->
          match (acc, dispatch_mount ?handle_epoch m Fsync) with
          | Error e, _ -> Error e
          | Ok _, r -> r)
        (Ok Unit) t.mounts

let apply t op = apply_gen t op
let apply_stamped t ~epoch op = apply_gen ~handle_epoch:epoch t op

(* List the mounted file systems' bindings under their mount points —
   the whole kernel's file namespace as one listing.  A lone root mount
   lists its instance's bindings as they are.  Otherwise each sub-mount
   lists its mount point as a directory, then its bindings rebased; the
   root mount comes last, so its entries win at a clash. *)
let interpret t =
  match t.mounts with
  | [ { mount_point = []; fs; _ } ] -> Iface.instance_interpret fs
  | mounts ->
      List.concat_map
        (fun m ->
          let sub = Iface.instance_interpret m.fs in
          match m.mount_point with
          | [] -> sub
          | at -> (at, Kspec.Fs_spec.Dir) :: List.map (fun (path, node) -> (at @ path, node)) sub)
        mounts
