(* Tests for the VFS layer: the legacy-to-modular adapter, mount-table
   dispatch, namespace interpretation, and the fd layer. *)

open Kspec

let check = Alcotest.check
let fail = Alcotest.fail
let p = Fs_spec.path_of_string

let result_t : Fs_spec.result Alcotest.testable =
  Alcotest.testable Fs_spec.pp_result Fs_spec.equal_result

let errno_r pp_ok =
  Alcotest.result pp_ok (Alcotest.testable Ksim.Errno.pp Ksim.Errno.equal)

(* Iface ------------------------------------------------------------------ *)

let test_instance_accessors () =
  let inst = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
  check Alcotest.string "name" "memfs_typed" (Kvfs.Iface.instance_name inst);
  check Alcotest.int "stage" 2 (Kvfs.Iface.instance_stage inst);
  check result_t "apply works" (Ok Fs_spec.Unit) (Kvfs.Iface.instance_apply inst (Create (p "/f")))

let test_legacy_adapter_decodes_errors () =
  let inst = Kvfs.Iface.make (module Kfs.Memfs_unsafe.Modular) () in
  check Alcotest.string "renamed" "memfs_unsafe+modular" (Kvfs.Iface.instance_name inst);
  check Alcotest.int "stage 1" 1 (Kvfs.Iface.instance_stage inst);
  check result_t "missing file" (Error Ksim.Errno.ENOENT)
    (Kvfs.Iface.instance_apply inst (Read { file = p "/nope"; off = 0; len = 4 }));
  check result_t "create" (Ok Fs_spec.Unit) (Kvfs.Iface.instance_apply inst (Create (p "/f")));
  check result_t "duplicate" (Error Ksim.Errno.EEXIST)
    (Kvfs.Iface.instance_apply inst (Create (p "/f")))

let test_legacy_adapter_write_roundtrip () =
  (* The adapter threads the void* between write_begin and write_end. *)
  let inst = Kvfs.Iface.make (module Kfs.Memfs_unsafe.Modular) () in
  ignore (Kvfs.Iface.instance_apply inst (Create (p "/f")));
  check result_t "write" (Ok Fs_spec.Unit)
    (Kvfs.Iface.instance_apply inst (Write { file = p "/f"; off = 0; data = "abc" }));
  check result_t "read" (Ok (Fs_spec.Data "abc"))
    (Kvfs.Iface.instance_apply inst (Read { file = p "/f"; off = 0; len = 8 }))

let test_errno_of_neg () =
  check Alcotest.bool "decodes ENOENT" true (Kvfs.Iface.errno_of_neg (-2) = Ksim.Errno.ENOENT);
  check Alcotest.bool "unknown becomes EINVAL" true
    (Kvfs.Iface.errno_of_neg (-9999) = Ksim.Errno.EINVAL)

(* Vfs ---------------------------------------------------------------------- *)

let mounted_vfs () =
  let vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) with
  | Ok () -> ()
  | Error e -> fail (Ksim.Errno.to_string e));
  vfs

let test_mount_and_dispatch () =
  let vfs = mounted_vfs () in
  check result_t "create through vfs" (Ok Fs_spec.Unit) (Kvfs.Vfs.apply vfs (Create (p "/f")));
  check result_t "read through vfs" (Ok (Fs_spec.Data ""))
    (Kvfs.Vfs.apply vfs (Read { file = p "/f"; off = 0; len = 4 }))

let test_mount_busy_and_umount () =
  let vfs = mounted_vfs () in
  check (errno_r Alcotest.unit) "busy" (Error Ksim.Errno.EBUSY)
    (Kvfs.Vfs.mount vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()));
  check (errno_r Alcotest.unit) "umount ok" (Ok ()) (Kvfs.Vfs.umount vfs ~at:[]);
  check (errno_r Alcotest.unit) "umount missing" (Error Ksim.Errno.EINVAL)
    (Kvfs.Vfs.umount vfs ~at:[])

let test_longest_prefix_wins () =
  let vfs = mounted_vfs () in
  ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/mnt")));
  let sub = Kvfs.Iface.make (module Kfs.Cowfs) () in
  (match Kvfs.Vfs.mount vfs ~at:(p "/mnt") sub with Ok () -> () | Error e -> fail (Ksim.Errno.to_string e));
  (* A file under /mnt goes to the submount, rebased. *)
  check result_t "create in submount" (Ok Fs_spec.Unit)
    (Kvfs.Vfs.apply vfs (Create (p "/mnt/inner")));
  check result_t "submount sees rebased path" (Ok (Fs_spec.Attr { kind = `File; size = 0 }))
    (Kvfs.Iface.instance_apply sub (Stat (p "/inner")));
  (* The root mount does not see it. *)
  check result_t "root fs clean" (Error Ksim.Errno.ENOENT)
    (Kvfs.Vfs.apply vfs (Stat (p "/other")));
  check Alcotest.int "two mounts" 2 (List.length (Kvfs.Vfs.mounts vfs))

let test_cross_mount_rename_exdev () =
  let vfs = mounted_vfs () in
  ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/mnt")));
  ignore (Kvfs.Vfs.mount vfs ~at:(p "/mnt") (Kvfs.Iface.make (module Kfs.Memfs_typed) ()));
  ignore (Kvfs.Vfs.apply vfs (Create (p "/file")));
  check result_t "EXDEV" (Error Ksim.Errno.EXDEV)
    (Kvfs.Vfs.apply vfs (Rename (p "/file", p "/mnt/file")));
  check result_t "same-mount rename fine" (Ok Fs_spec.Unit)
    (Kvfs.Vfs.apply vfs (Rename (p "/file", p "/file2")))

let test_namespace_interpretation () =
  let vfs = mounted_vfs () in
  ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/mnt")));
  ignore (Kvfs.Vfs.mount vfs ~at:(p "/mnt") (Kvfs.Iface.make (module Kfs.Memfs_typed) ()));
  ignore (Kvfs.Vfs.apply vfs (Create (p "/top")));
  ignore (Kvfs.Vfs.apply vfs (Create (p "/mnt/inner")));
  let st = Fs_spec.of_bindings (Kvfs.Vfs.interpret vfs) in
  check Alcotest.bool "top visible" true (Fs_spec.Pathmap.mem (p "/top") st);
  check Alcotest.bool "mount point is dir" true (Fs_spec.is_dir st (p "/mnt"));
  check Alcotest.bool "inner re-rooted" true (Fs_spec.Pathmap.mem (p "/mnt/inner") st);
  check Alcotest.bool "well-formed" true (Fs_spec.wf st)

let test_fsync_fans_out () =
  let vfs = mounted_vfs () in
  ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/j")));
  ignore (Kvfs.Vfs.mount vfs ~at:(p "/j") (Kvfs.Iface.make (module Kfs.Journalfs.Journaled_fs) ()));
  check result_t "fsync all mounts" (Ok Fs_spec.Unit) (Kvfs.Vfs.apply vfs Fsync)

let test_unmounted_path_enoent () =
  let vfs = Kvfs.Vfs.create () in
  check result_t "nothing mounted" (Error Ksim.Errno.ENOENT)
    (Kvfs.Vfs.apply vfs (Stat (p "/x")))

(* File_ops -------------------------------------------------------------------- *)

let make_fd_env () =
  let vfs = mounted_vfs () in
  Kvfs.File_ops.create vfs

let test_fd_open_write_read () =
  let t = make_fd_env () in
  let fd =
    match Kvfs.File_ops.openf t ~flags:[ Kvfs.File_ops.O_RDWR; Kvfs.File_ops.O_CREAT ] "/f" with
    | Ok fd -> fd
    | Error e -> fail (Ksim.Errno.to_string e)
  in
  check Alcotest.bool "fd >= 3" true (fd >= 3);
  check (errno_r Alcotest.int) "write" (Ok 5) (Kvfs.File_ops.write t fd "hello");
  (* Position advanced: read at EOF is empty. *)
  check (errno_r Alcotest.string) "read at eof" (Ok "") (Kvfs.File_ops.read t fd ~len:10);
  ignore (Kvfs.File_ops.lseek t fd 0 Kvfs.File_ops.SEEK_SET);
  check (errno_r Alcotest.string) "read from 0" (Ok "hello") (Kvfs.File_ops.read t fd ~len:10);
  check (errno_r Alcotest.unit) "close" (Ok ()) (Kvfs.File_ops.close t fd);
  check (errno_r Alcotest.string) "read after close" (Error Ksim.Errno.EBADF)
    (Kvfs.File_ops.read t fd ~len:1)

let test_fd_flags () =
  let t = make_fd_env () in
  (* O_RDONLY refuses writes. *)
  (match Kvfs.File_ops.openf t ~flags:[ Kvfs.File_ops.O_CREAT ] "/ro" with
  | Ok fd ->
      check (errno_r Alcotest.int) "read-only write" (Error Ksim.Errno.EBADF)
        (Kvfs.File_ops.write t fd "x")
  | Error e -> fail (Ksim.Errno.to_string e));
  (* O_WRONLY refuses reads. *)
  (match Kvfs.File_ops.openf t ~flags:[ Kvfs.File_ops.O_WRONLY ] "/ro" with
  | Ok fd ->
      check (errno_r Alcotest.string) "write-only read" (Error Ksim.Errno.EBADF)
        (Kvfs.File_ops.read t fd ~len:1)
  | Error e -> fail (Ksim.Errno.to_string e));
  (* Missing without O_CREAT. *)
  check Alcotest.bool "enoent" true
    (Kvfs.File_ops.openf t "/missing" = Error Ksim.Errno.ENOENT)

let test_fd_trunc_append () =
  let t = make_fd_env () in
  let wr path flags data =
    match Kvfs.File_ops.openf t ~flags path with
    | Ok fd ->
        ignore (Kvfs.File_ops.write t fd data);
        ignore (Kvfs.File_ops.close t fd)
    | Error e -> fail (Ksim.Errno.to_string e)
  in
  wr "/f" [ Kvfs.File_ops.O_WRONLY; Kvfs.File_ops.O_CREAT ] "0123456789";
  wr "/f" [ Kvfs.File_ops.O_WRONLY; Kvfs.File_ops.O_APPEND ] "ab";
  check (errno_r (Alcotest.pair (Alcotest.testable Fmt.nop ( = )) Alcotest.int)) "size 12"
    (Ok (`File, 12))
    (Kvfs.File_ops.stat t "/f");
  wr "/f" [ Kvfs.File_ops.O_WRONLY; Kvfs.File_ops.O_TRUNC ] "xy";
  check (errno_r (Alcotest.pair (Alcotest.testable Fmt.nop ( = )) Alcotest.int)) "truncated"
    (Ok (`File, 2))
    (Kvfs.File_ops.stat t "/f")

let test_fd_lseek () =
  let t = make_fd_env () in
  let fd =
    match Kvfs.File_ops.openf t ~flags:[ Kvfs.File_ops.O_RDWR; Kvfs.File_ops.O_CREAT ] "/f" with
    | Ok fd -> fd
    | Error e -> fail (Ksim.Errno.to_string e)
  in
  ignore (Kvfs.File_ops.write t fd "abcdef");
  check (errno_r Alcotest.int) "seek end" (Ok 6) (Kvfs.File_ops.lseek t fd 0 Kvfs.File_ops.SEEK_END);
  check (errno_r Alcotest.int) "seek cur back" (Ok 4)
    (Kvfs.File_ops.lseek t fd (-2) Kvfs.File_ops.SEEK_CUR);
  check (errno_r Alcotest.string) "read tail" (Ok "ef") (Kvfs.File_ops.read t fd ~len:10);
  check (errno_r Alcotest.int) "negative rejected" (Error Ksim.Errno.EINVAL)
    (Kvfs.File_ops.lseek t fd (-1) Kvfs.File_ops.SEEK_SET)

let test_fd_dir_ops () =
  let t = make_fd_env () in
  check (errno_r Alcotest.unit) "mkdir" (Ok ()) (Kvfs.File_ops.mkdir t "/d");
  (match Kvfs.File_ops.openf t ~flags:[ Kvfs.File_ops.O_CREAT ] "/d/f" with
  | Ok fd -> ignore (Kvfs.File_ops.close t fd)
  | Error e -> fail (Ksim.Errno.to_string e));
  check (errno_r Alcotest.(list string)) "readdir" (Ok [ "f" ]) (Kvfs.File_ops.readdir t "/d");
  check (errno_r Alcotest.unit) "rename" (Ok ()) (Kvfs.File_ops.rename t "/d/f" "/d/g");
  check (errno_r Alcotest.unit) "unlink" (Ok ()) (Kvfs.File_ops.unlink t "/d/g");
  check (errno_r Alcotest.unit) "rmdir" (Ok ()) (Kvfs.File_ops.rmdir t "/d");
  check (errno_r Alcotest.unit) "fsync" (Ok ()) (Kvfs.File_ops.fsync t);
  check Alcotest.int "no fds leaked" 0 (Kvfs.File_ops.open_fds t)

(* A process's fd table costs nothing until it opens a file: kload
   spawns thousands of tenants that hold at most one fd at a time.  Fd
   numbers and EBADF behave as ever. *)
let test_fd_table_empty_until_open () =
  let vfs = mounted_vfs () in
  let n = 1_000 in
  let words = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Kvfs.File_ops.create vfs) : Kvfs.File_ops.t)
  done;
  let per_create = (Gc.minor_words () -. words) /. float_of_int n in
  check Alcotest.bool (Printf.sprintf "%.1f minor words per create" per_create) true
    (per_create <= 8.);
  let t = Kvfs.File_ops.create vfs in
  let open_ path = Kvfs.File_ops.openf t ~flags:Kvfs.File_ops.[ O_CREAT; O_RDWR ] path in
  check (errno_r Alcotest.int) "first fd" (Ok 3) (open_ "/a");
  check (errno_r Alcotest.int) "second fd" (Ok 4) (open_ "/b");
  check (errno_r Alcotest.unit) "close" (Ok ()) (Kvfs.File_ops.close t 3);
  check (errno_r Alcotest.int) "fds are not reused" (Ok 5) (open_ "/c");
  check (errno_r Alcotest.unit) "closed fd is EBADF" (Error Ksim.Errno.EBADF)
    (Kvfs.File_ops.close t 3);
  check Alcotest.int "two open" 2 (Kvfs.File_ops.open_fds t)

(* Property: VFS routing is exactly rebase-then-dispatch ------------------------- *)

let gen_name = QCheck2.Gen.oneofl [ "a"; "b"; "c" ]
let gen_rel_path = QCheck2.Gen.(list_size (int_range 1 2) gen_name)

let gen_sub_op =
  let open QCheck2.Gen in
  oneof
    [
      map (fun pa -> Fs_spec.Create pa) gen_rel_path;
      map (fun pa -> Fs_spec.Mkdir pa) gen_rel_path;
      map2
        (fun pa data -> Fs_spec.Write { file = pa; off = 0; data })
        gen_rel_path
        (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
      map (fun pa -> Fs_spec.Read { file = pa; off = 0; len = 8 }) gen_rel_path;
      map (fun pa -> Fs_spec.Unlink pa) gen_rel_path;
      map (fun pa -> Fs_spec.Stat pa) gen_rel_path;
      map (fun pa -> Fs_spec.Readdir pa) gen_rel_path;
    ]

let rebase_op prefix (op : Fs_spec.op) : Fs_spec.op =
  let re pa = prefix @ pa in
  match op with
  | Create pa -> Create (re pa)
  | Mkdir pa -> Mkdir (re pa)
  | Write { file; off; data } -> Write { file = re file; off; data }
  | Read { file; off; len } -> Read { file = re file; off; len }
  | Truncate (pa, n) -> Truncate (re pa, n)
  | Unlink pa -> Unlink (re pa)
  | Rmdir pa -> Rmdir (re pa)
  | Rename (a, b) -> Rename (re a, re b)
  | Readdir pa -> Readdir (re pa)
  | Stat pa -> Stat (re pa)
  | Fsync -> Fsync

let prop_vfs_routes_to_submount =
  QCheck2.Test.make ~name:"vfs dispatch = rebase + direct submount call" ~count:150
    QCheck2.Gen.(list_size (int_range 1 30) gen_sub_op)
    (fun ops ->
      (* Twin submounts: one reached through the VFS, one driven directly
         with rebased ops.  Results must agree op for op. *)
      let vfs = Kvfs.Vfs.create () in
      (match Kvfs.Vfs.mount vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) with
      | Ok () -> ()
      | Error _ -> assert false);
      ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/sub")));
      (match Kvfs.Vfs.mount vfs ~at:(p "/sub") (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) with
      | Ok () -> ()
      | Error _ -> assert false);
      let twin = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
      List.for_all
        (fun op ->
          let via_vfs = Kvfs.Vfs.apply vfs (rebase_op (p "/sub") op) in
          let direct = Kvfs.Iface.instance_apply twin op in
          Fs_spec.equal_result via_vfs direct)
        ops)

(* Property: the namespace merge ------------------------------------------------ *)

(* The reference merge: fold the mounts longest mount point first, as the
   mount table orders them, adding every rebased path one at a time, so
   the root mount's entries win at a clash. *)
let interpret_by_add mounts =
  List.fold_left
    (fun acc (at, inst) ->
      let acc = if at = [] then acc else Fs_spec.Pathmap.add at Fs_spec.Dir acc in
      List.fold_left
        (fun acc (path, node) -> Fs_spec.Pathmap.add (at @ path) node acc)
        acc (Kvfs.Iface.instance_interpret inst))
    Fs_spec.empty mounts

let mount_exn vfs ~at inst =
  match Kvfs.Vfs.mount vfs ~at inst with Ok () -> () | Error _ -> assert false

let prop_interpret_lone_root =
  QCheck2.Test.make ~name:"interpret = fold-and-add, lone root mount" ~count:150
    QCheck2.Gen.(list_size (int_range 0 30) gen_sub_op)
    (fun ops ->
      let vfs = Kvfs.Vfs.create () in
      let root = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
      mount_exn vfs ~at:[] root;
      List.iter (fun op -> ignore (Kvfs.Vfs.apply vfs op)) ops;
      Fs_spec.equal_bindings (interpret_by_add [ ([], root) ]) (Kvfs.Vfs.interpret vfs))

let prop_interpret_root_and_sub =
  (* Ops under /sub before the mount land in the root file system and
     stay there, shadowed, so the two maps clash under /sub. *)
  QCheck2.Test.make ~name:"interpret = fold-and-add, root shadowed by /sub" ~count:150
    QCheck2.Gen.(
      pair (list_size (int_range 0 15) gen_sub_op) (list_size (int_range 0 30) (pair bool gen_sub_op)))
    (fun (before, after) ->
      let vfs = Kvfs.Vfs.create () in
      let root = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
      let sub = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
      mount_exn vfs ~at:[] root;
      ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/sub")));
      List.iter (fun op -> ignore (Kvfs.Vfs.apply vfs (rebase_op (p "/sub") op))) before;
      mount_exn vfs ~at:(p "/sub") sub;
      List.iter
        (fun (under_sub, op) ->
          ignore (Kvfs.Vfs.apply vfs (if under_sub then rebase_op (p "/sub") op else op)))
        after;
      Fs_spec.equal_bindings
        (interpret_by_add [ (p "/sub", sub); ([], root) ])
        (Kvfs.Vfs.interpret vfs))

(* Property: the fd layer against an independent model --------------------------- *)

type fd_model = {
  mutable m_content : string option; (* the single file, when it exists *)
  mutable m_pos : int option; (* position, when the fd is open *)
}

let prop_fd_layer_matches_model =
  (* A one-file model of open/write/read/lseek/close is enough to pin the
     fd layer's position arithmetic down. *)
  QCheck2.Test.make ~name:"fd layer matches the position model" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 25)
        (oneof
           [
             return `Open;
             map (fun s -> `Write s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 6));
             map (fun n -> `Read n) (int_range 1 8);
             map (fun n -> `Seek n) (int_range 0 12);
             return `Close;
           ]))
    (fun script ->
      let vfs = Kvfs.Vfs.create () in
      (match Kvfs.Vfs.mount vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) with
      | Ok () -> ()
      | Error _ -> assert false);
      let t = Kvfs.File_ops.create vfs in
      let model = { m_content = None; m_pos = None } in
      let fd = ref (-1) in
      List.for_all
        (fun step ->
          match step with
          | `Open -> (
              match
                Kvfs.File_ops.openf t
                  ~flags:[ Kvfs.File_ops.O_RDWR; Kvfs.File_ops.O_CREAT ]
                  "/file"
              with
              | Ok f ->
                  (match !fd with
                  | -1 -> ()
                  | old -> ignore (Kvfs.File_ops.close t old));
                  fd := f;
                  if model.m_content = None then model.m_content <- Some "";
                  model.m_pos <- Some 0;
                  true
              | Error _ -> false)
          | `Write data -> (
              match (Kvfs.File_ops.write t !fd data, model.m_pos, model.m_content) with
              | Ok n, Some pos, Some content ->
                  model.m_content <- Some (Fs_spec.write_at content ~off:pos ~data);
                  model.m_pos <- Some (pos + n);
                  n = String.length data
              | Error Ksim.Errno.EBADF, None, _ -> true
              | _ -> false)
          | `Read len -> (
              match (Kvfs.File_ops.read t !fd ~len, model.m_pos, model.m_content) with
              | Ok data, Some pos, Some content ->
                  model.m_pos <- Some (pos + String.length data);
                  String.equal data (Fs_spec.read_at content ~off:pos ~len)
              | Error Ksim.Errno.EBADF, None, _ -> true
              | _ -> false)
          | `Seek n -> (
              match (Kvfs.File_ops.lseek t !fd n Kvfs.File_ops.SEEK_SET, model.m_pos) with
              | Ok pos, Some _ ->
                  model.m_pos <- Some n;
                  pos = n
              | Error Ksim.Errno.EBADF, None -> true
              | _ -> false)
          | `Close -> (
              match (Kvfs.File_ops.close t !fd, model.m_pos) with
              | Ok (), Some _ ->
                  model.m_pos <- None;
                  fd := -1;
                  true
              | Error Ksim.Errno.EBADF, None -> true
              | _ -> false))
        script)

(* Supervision -------------------------------------------------------------------
   A supervised memfs mount: the remake factory builds a fresh (empty)
   memfs, so a microreboot is observable as RAM state vanishing while
   the mount itself stays up.  Timing is exact on the simulated clock:
   op_cost 100 per call, backoff base 200 → one EINTR'd call between the
   oops and the reboot under the default policy. *)

let supervised_memfs ?policy () =
  let fp = Ksim.Failpoint.create ~seed:3 () in
  let make () = Kvfs.Iface.panicky ~fp (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) in
  let vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount vfs ~at:[] ~remake:make ?policy (make ()) with
  | Ok () -> ()
  | Error e -> fail (Ksim.Errno.to_string e));
  (fp, vfs)

let arm_panic fp = Ksim.Failpoint.configure fp "module.panic" ~enabled:true ~times:1 ()

let test_supervised_mount_lifecycle () =
  let fp, vfs = supervised_memfs () in
  check result_t "healthy create" (Ok Fs_spec.Unit) (Kvfs.Vfs.apply vfs (Create (p "/pre")));
  arm_panic fp;
  check result_t "oops contained to EIO" (Error Ksim.Errno.EIO)
    (Kvfs.Vfs.apply vfs (Stat (p "/pre")));
  check result_t "quiesce drains with EINTR" (Error Ksim.Errno.EINTR)
    (Kvfs.Vfs.apply vfs (Stat (p "/pre")));
  (* First call past the backoff deadline microreboots; memfs state is
     RAM, so the new generation comes back empty. *)
  check result_t "rebooted: RAM state gone" (Error Ksim.Errno.ENOENT)
    (Kvfs.Vfs.apply vfs (Stat (p "/pre")));
  check Alcotest.int "epoch bumped" 1 (Kvfs.Vfs.epoch_at vfs (p "/pre"));
  check result_t "new generation works" (Ok Fs_spec.Unit)
    (Kvfs.Vfs.apply vfs (Create (p "/post")));
  match Kvfs.Vfs.supervisor_at vfs (p "/post") with
  | None -> fail "mount is not supervised"
  | Some sup ->
      check Alcotest.bool "healthy again" true
        (Ksim.Supervisor.state sup = Ksim.Supervisor.Healthy)

let test_fd_epoch_stamping_estale () =
  let fp, vfs = supervised_memfs () in
  let t = Kvfs.File_ops.create vfs in
  let fd =
    match Kvfs.File_ops.openf t ~flags:[ Kvfs.File_ops.O_RDWR; Kvfs.File_ops.O_CREAT ] "/f" with
    | Ok fd -> fd
    | Error e -> fail (Ksim.Errno.to_string e)
  in
  check Alcotest.(option int) "fd minted at epoch 0" (Some 0) (Kvfs.File_ops.fd_epoch t fd);
  check (errno_r Alcotest.int) "write through fd" (Ok 5) (Kvfs.File_ops.write t fd "hello");
  arm_panic fp;
  check (errno_r Alcotest.string) "oops through the fd is EIO" (Error Ksim.Errno.EIO)
    (Kvfs.File_ops.read t fd ~len:5);
  check (errno_r Alcotest.string) "quiesce through the fd is EINTR" (Error Ksim.Errno.EINTR)
    (Kvfs.File_ops.read t fd ~len:5);
  (* The critical ordering: this very call performs the deferred
     microreboot, and the staleness check runs inside the containment
     thunk — the dead-generation fd must answer ESTALE rather than read
     the rebuilt instance. *)
  check (errno_r Alcotest.string) "reboot-triggering read is ESTALE" (Error Ksim.Errno.ESTALE)
    (Kvfs.File_ops.read t fd ~len:5);
  check Alcotest.int "mount is at epoch 1" 1 (Kvfs.Vfs.epoch_at vfs (p "/f"));
  check (errno_r Alcotest.int) "stale write is ESTALE" (Error Ksim.Errno.ESTALE)
    (Kvfs.File_ops.write t fd "x");
  check (errno_r Alcotest.unit) "stale epoch via validate_epoch" (Error Ksim.Errno.ESTALE)
    (Kvfs.Vfs.validate_epoch vfs (p "/f") 0);
  check (errno_r Alcotest.unit) "live epoch via validate_epoch" (Ok ())
    (Kvfs.Vfs.validate_epoch vfs (p "/f") 1);
  (* Reopening mints a handle against the live generation. *)
  match Kvfs.File_ops.openf t ~flags:[ Kvfs.File_ops.O_RDWR; Kvfs.File_ops.O_CREAT ] "/f" with
  | Error e -> fail (Ksim.Errno.to_string e)
  | Ok fd2 ->
      check Alcotest.(option int) "fresh fd at epoch 1" (Some 1) (Kvfs.File_ops.fd_epoch t fd2);
      check (errno_r Alcotest.string) "fresh fd reads (empty new RAM)" (Ok "")
        (Kvfs.File_ops.read t fd2 ~len:5)

let test_degraded_reads_only () =
  (* Budget 0: the first oops escalates straight to Failed.  No reboot
     ever runs, so the last live instance still holds the data and the
     degraded mount serves it — reads only. *)
  let policy = { Ksim.Supervisor.default_policy with Ksim.Supervisor.restart_budget = 0 } in
  let fp, vfs = supervised_memfs ~policy () in
  let t = Kvfs.File_ops.create vfs in
  check result_t "create" (Ok Fs_spec.Unit) (Kvfs.Vfs.apply vfs (Create (p "/keep")));
  check result_t "write" (Ok Fs_spec.Unit)
    (Kvfs.Vfs.apply vfs (Write { file = p "/keep"; off = 0; data = "safe" }));
  let fd =
    match Kvfs.File_ops.openf t "/keep" with
    | Ok fd -> fd
    | Error e -> fail (Ksim.Errno.to_string e)
  in
  arm_panic fp;
  check result_t "oops" (Error Ksim.Errno.EIO) (Kvfs.Vfs.apply vfs (Stat (p "/keep")));
  check result_t "quiesce" (Error Ksim.Errno.EINTR) (Kvfs.Vfs.apply vfs (Stat (p "/keep")));
  check result_t "budget 0: escalation, not reboot" (Error Ksim.Errno.EIO)
    (Kvfs.Vfs.apply vfs (Stat (p "/keep")));
  (match Kvfs.Vfs.supervisor_at vfs (p "/keep") with
  | None -> fail "mount is not supervised"
  | Some sup ->
      check Alcotest.bool "Failed" true (Ksim.Supervisor.state sup = Ksim.Supervisor.Failed));
  check result_t "degraded read serves last live data" (Ok (Fs_spec.Data "safe"))
    (Kvfs.Vfs.apply vfs (Read { file = p "/keep"; off = 0; len = 4 }));
  check result_t "degraded stat works" (Ok (Fs_spec.Attr { kind = `File; size = 4 }))
    (Kvfs.Vfs.apply vfs (Stat (p "/keep")));
  check result_t "degraded mutation is EIO" (Error Ksim.Errno.EIO)
    (Kvfs.Vfs.apply vfs (Write { file = p "/keep"; off = 0; data = "no" }));
  check result_t "degraded unlink is EIO" (Error Ksim.Errno.EIO)
    (Kvfs.Vfs.apply vfs (Unlink (p "/keep")));
  (* The epoch never bumped (no successful reboot), so the pre-oops fd is
     still the live generation and reads through the degraded mount. *)
  check Alcotest.int "epoch still 0" 0 (Kvfs.Vfs.epoch_at vfs (p "/keep"));
  check (errno_r Alcotest.string) "pre-oops fd reads in degraded mode" (Ok "safe")
    (Kvfs.File_ops.read t fd ~len:4)

(* Vtypes ----------------------------------------------------------------------- *)

let test_inode_identity () =
  let a = Kvfs.Vtypes.make_inode () in
  let b = Kvfs.Vtypes.make_inode () in
  check Alcotest.bool "distinct inos" true (a.Kvfs.Vtypes.ino <> b.Kvfs.Vtypes.ino);
  check Alcotest.bool "own locks" true (a.Kvfs.Vtypes.i_lock != b.Kvfs.Vtypes.i_lock)

let test_inode_i_size_discipline () =
  let i = Kvfs.Vtypes.make_inode () in
  (* The "maybe protected" pattern: unlocked update is recorded. *)
  Ksim.Klock.Guarded.set i.Kvfs.Vtypes.i_size 10;
  check Alcotest.int "race recorded" 1 (Ksim.Klock.Guarded.races i.Kvfs.Vtypes.i_size);
  Ksim.Klock.with_lock i.Kvfs.Vtypes.i_lock (fun () ->
      Ksim.Klock.Guarded.set i.Kvfs.Vtypes.i_size 20);
  check Alcotest.int "locked update clean" 1 (Ksim.Klock.Guarded.races i.Kvfs.Vtypes.i_size)

let () =
  Alcotest.run "kvfs"
    [
      ( "iface",
        [
          Alcotest.test_case "instance accessors" `Quick test_instance_accessors;
          Alcotest.test_case "legacy adapter errors" `Quick test_legacy_adapter_decodes_errors;
          Alcotest.test_case "legacy write roundtrip" `Quick test_legacy_adapter_write_roundtrip;
          Alcotest.test_case "errno_of_neg" `Quick test_errno_of_neg;
        ] );
      ( "vfs",
        [
          Alcotest.test_case "mount and dispatch" `Quick test_mount_and_dispatch;
          Alcotest.test_case "mount busy / umount" `Quick test_mount_busy_and_umount;
          Alcotest.test_case "longest prefix wins" `Quick test_longest_prefix_wins;
          Alcotest.test_case "cross-mount rename EXDEV" `Quick test_cross_mount_rename_exdev;
          Alcotest.test_case "namespace interpretation" `Quick test_namespace_interpretation;
          Alcotest.test_case "fsync fans out" `Quick test_fsync_fans_out;
          Alcotest.test_case "nothing mounted" `Quick test_unmounted_path_enoent;
        ] );
      ( "file_ops",
        [
          Alcotest.test_case "open/write/read" `Quick test_fd_open_write_read;
          Alcotest.test_case "flags" `Quick test_fd_flags;
          Alcotest.test_case "trunc/append" `Quick test_fd_trunc_append;
          Alcotest.test_case "lseek" `Quick test_fd_lseek;
          Alcotest.test_case "dir ops" `Quick test_fd_dir_ops;
          Alcotest.test_case "fd table empty until open" `Quick test_fd_table_empty_until_open;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "supervised mount lifecycle" `Quick test_supervised_mount_lifecycle;
          Alcotest.test_case "fd epoch stamping / ESTALE" `Quick test_fd_epoch_stamping_estale;
          Alcotest.test_case "degraded reads-only" `Quick test_degraded_reads_only;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_vfs_routes_to_submount;
            prop_interpret_lone_root;
            prop_interpret_root_and_sub;
            prop_fd_layer_matches_model;
          ] );
      ( "vtypes",
        [
          Alcotest.test_case "inode identity" `Quick test_inode_identity;
          Alcotest.test_case "i_size discipline" `Quick test_inode_i_size_discipline;
        ] );
    ]
