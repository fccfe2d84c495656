(* Tests for the file systems: per-stage functional behaviour, the
   differential property that every stage agrees with the abstract spec on
   random traces, union and CoW semantics, and the workload generator. *)

open Kspec

let check = Alcotest.check
let fail = Alcotest.fail
let p = Fs_spec.path_of_string

let result_t : Fs_spec.result Alcotest.testable =
  Alcotest.testable Fs_spec.pp_result Fs_spec.equal_result

(* Generator for differential traces: short component names so paths
   collide often, mixing valid and invalid operations. *)
let gen_name = QCheck2.Gen.oneofl [ "a"; "b"; "c" ]
let gen_path = QCheck2.Gen.(list_size (int_range 1 3) gen_name)

let gen_op =
  let open QCheck2.Gen in
  oneof
    [
      map (fun pa -> Fs_spec.Create pa) gen_path;
      map (fun pa -> Fs_spec.Mkdir pa) gen_path;
      map3
        (fun pa off data -> Fs_spec.Write { file = pa; off; data })
        gen_path (int_range 0 12)
        (string_size ~gen:(char_range 'a' 'z') (int_range 0 10));
      map3 (fun pa off len -> Fs_spec.Read { file = pa; off; len }) gen_path (int_range 0 12)
        (int_range 0 16);
      map2 (fun pa n -> Fs_spec.Truncate (pa, n)) gen_path (int_range 0 16);
      map (fun pa -> Fs_spec.Unlink pa) gen_path;
      map (fun pa -> Fs_spec.Rmdir pa) gen_path;
      map2 (fun a b -> Fs_spec.Rename (a, b)) gen_path gen_path;
      map (fun pa -> Fs_spec.Readdir pa) gen_path;
      map (fun pa -> Fs_spec.Stat pa) gen_path;
      return Fs_spec.Fsync;
    ]

let gen_trace = QCheck2.Gen.(list_size (int_range 0 50) gen_op)

(* Differential check of an implementation against the spec: results AND
   interpreted states after every op. *)
let agrees_with_spec (type f) (module F : Kvfs.Iface.FS_OPS with type fs = f) ops =
  let fs = F.mkfs () in
  let rec go spec_state = function
    | [] -> true
    | op :: rest ->
        let got = F.apply fs op in
        let spec_state', expected = Fs_spec.step spec_state op in
        Fs_spec.equal_result expected got
        && Fs_spec.equal_bindings spec_state' (F.interpret fs)
        && go spec_state' rest
  in
  go Fs_spec.empty ops

let differential name (module F : Kvfs.Iface.FS_OPS) =
  QCheck2.Test.make ~name:(name ^ " agrees with Fs_spec on random traces") ~count:150 gen_trace
    (fun ops -> agrees_with_spec (module F) ops)

(* memfs_owned: on top of spec agreement, no trace may leave ownership
   violations behind. *)
let owned_no_violations =
  QCheck2.Test.make ~name:"memfs_owned never violates ownership" ~count:150 gen_trace
    (fun ops ->
      let fs = Kfs.Memfs_owned.mkfs () in
      List.iter (fun op -> ignore (Kfs.Memfs_owned.apply fs op)) ops;
      Ownership.Checker.violation_count (Kfs.Memfs_owned.checker fs) = 0)

(* Group-commit journalfs must agree with the spec exactly like the
   per-op-commit variant. *)
let journalfs_group_differential =
  QCheck2.Test.make ~name:"journalfs(group-commit) agrees with Fs_spec" ~count:40 gen_trace
    (fun ops -> agrees_with_spec (module Kfs.Journalfs.Journaled_group_fs) ops)

(* Unionfs over a populated lower layer, against the merged spec state.
   Rename is excluded (directory rename is EXDEV by design); everything
   else must behave exactly like one merged file system. *)
let gen_union_op =
  let open QCheck2.Gen in
  oneof
    [
      map (fun pa -> Fs_spec.Create pa) gen_path;
      map (fun pa -> Fs_spec.Mkdir pa) gen_path;
      map2
        (fun pa data -> Fs_spec.Write { file = pa; off = 0; data })
        gen_path
        (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
      map (fun pa -> Fs_spec.Read { file = pa; off = 0; len = 12 }) gen_path;
      map (fun pa -> Fs_spec.Unlink pa) gen_path;
      map (fun pa -> Fs_spec.Rmdir pa) gen_path;
      map (fun pa -> Fs_spec.Readdir pa) gen_path;
      map (fun pa -> Fs_spec.Stat pa) gen_path;
    ]

let union_differential =
  QCheck2.Test.make ~name:"unionfs behaves as the merged file system (no rename)" ~count:120
    QCheck2.Gen.(pair (list_size (int_range 0 12) gen_union_op)
                   (list_size (int_range 0 25) gen_union_op))
    (fun (lower_ops, ops) ->
      let lower = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
      let spec0 =
        List.fold_left
          (fun st op ->
            ignore (Kvfs.Iface.instance_apply lower op);
            fst (Fs_spec.step st op))
          Fs_spec.empty lower_ops
      in
      let fs = Kfs.Unionfs.make ~upper:(Kvfs.Iface.make (module Kfs.Memfs_typed) ()) ~lower in
      let rec go spec = function
        | [] -> true
        | op :: rest ->
            let got = Kfs.Unionfs.apply fs op in
            let spec', expected = Fs_spec.step spec op in
            Fs_spec.equal_result expected got
            && Fs_spec.equal_bindings spec' (Kfs.Unionfs.interpret fs)
            && go spec' rest
      in
      go spec0 ops)

(* Fixed smoke run for each stage. *)
let smoke_stage name (module F : Kvfs.Iface.FS_OPS) () =
  let inst = Kvfs.Iface.make (module F) () in
  let ok, errs = Kfs.Workload.replay inst Kfs.Workload.smoke in
  check Alcotest.int (name ^ " smoke all ok") (List.length Kfs.Workload.smoke) ok;
  check Alcotest.int (name ^ " no errors") 0 errs

(* memfs_unsafe specifics --------------------------------------------------------- *)

let test_unsafe_no_faults_is_correct () =
  check Alcotest.bool "clean run agrees with spec" true
    (agrees_with_spec
       (module Kfs.Memfs_unsafe.Modular)
       [ Fs_spec.Create (p "/f");
         Fs_spec.Write { file = p "/f"; off = 0; data = "abc" };
         Fs_spec.Read { file = p "/f"; off = 0; len = 3 };
         Fs_spec.Unlink (p "/f") ])

let test_unsafe_uaf_fault_oopses () =
  let faults = Kfs.Memfs_unsafe.no_faults () in
  faults.Kfs.Memfs_unsafe.use_after_free <- true;
  let fs = Kfs.Memfs_unsafe.mkfs_with_faults faults in
  let module L = Kfs.Memfs_unsafe.Legacy in
  ignore (L.create fs "/f" ~kind:Kvfs.Vtypes.Regular);
  ignore (L.unlink fs "/f");
  match L.read fs "/f" ~off:0 ~len:4 with
  | _ -> fail "expected Use_after_free"
  | exception Ksim.Kmem.Use_after_free _ -> ()

let test_unsafe_leak_fault_leaks () =
  let faults = Kfs.Memfs_unsafe.no_faults () in
  faults.Kfs.Memfs_unsafe.memory_leak <- true;
  let fs = Kfs.Memfs_unsafe.mkfs_with_faults faults in
  let module L = Kfs.Memfs_unsafe.Legacy in
  ignore (L.create fs "/f" ~kind:Kvfs.Vtypes.Regular);
  ignore (L.unlink fs "/f");
  check Alcotest.int "one leaked object" 1
    (List.length (Ksim.Kmem.leaks (Kfs.Memfs_unsafe.heap fs)))

let test_unsafe_wrong_cast_confuses () =
  let faults = Kfs.Memfs_unsafe.no_faults () in
  faults.Kfs.Memfs_unsafe.wrong_cast <- true;
  let fs = Kfs.Memfs_unsafe.mkfs_with_faults faults in
  let module L = Kfs.Memfs_unsafe.Legacy in
  ignore (L.create fs "/f" ~kind:Kvfs.Vtypes.Regular);
  match L.write_begin fs "/f" ~off:0 with
  | Ksim.Dyn.Errptr.Err _ -> fail "write_begin failed"
  | Ksim.Dyn.Errptr.Ptr private_data -> (
      match L.write_end fs private_data ~data:"x" with
      | _ -> fail "expected Type_confusion"
      | exception Ksim.Dyn.Type_confusion _ -> ())

let test_unsafe_missing_errptr_check_oopses () =
  let faults = Kfs.Memfs_unsafe.no_faults () in
  faults.Kfs.Memfs_unsafe.missing_errptr_check <- true;
  let fs = Kfs.Memfs_unsafe.mkfs_with_faults faults in
  let module L = Kfs.Memfs_unsafe.Legacy in
  match L.read fs "/missing" ~off:0 ~len:4 with
  | _ -> fail "expected Null_dereference"
  | exception Ksim.Dyn.Null_dereference -> ()

(* memfs_owned specifics ------------------------------------------------------------ *)

let test_owned_clean_run_no_violations () =
  let fs = Kfs.Memfs_owned.mkfs () in
  List.iter
    (fun op -> ignore (Kfs.Memfs_owned.apply fs op))
    [ Fs_spec.Create (p "/f");
      Fs_spec.Write { file = p "/f"; off = 0; data = String.make 200 'x' };
      Fs_spec.Read { file = p "/f"; off = 0; len = 200 };
      Fs_spec.Truncate (p "/f", 10);
      Fs_spec.Unlink (p "/f") ];
  check Alcotest.int "no violations" 0
    (Ownership.Checker.violation_count (Kfs.Memfs_owned.checker fs));
  check Alcotest.bool "no leaks after destroy" true (Kfs.Memfs_owned.destroy fs)

let test_owned_unlink_frees_region () =
  let fs = Kfs.Memfs_owned.mkfs () in
  ignore (Kfs.Memfs_owned.apply fs (Fs_spec.Create (p "/f")));
  let ck = Kfs.Memfs_owned.checker fs in
  check Alcotest.int "one region live" 1 (List.length (Ownership.Checker.live_regions ck));
  ignore (Kfs.Memfs_owned.apply fs (Fs_spec.Unlink (p "/f")));
  check Alcotest.int "freed on unlink" 0 (List.length (Ownership.Checker.live_regions ck))

let test_owned_rename_over_frees_target () =
  let fs = Kfs.Memfs_owned.mkfs () in
  ignore (Kfs.Memfs_owned.apply fs (Fs_spec.Create (p "/a")));
  ignore (Kfs.Memfs_owned.apply fs (Fs_spec.Create (p "/b")));
  ignore (Kfs.Memfs_owned.apply fs (Fs_spec.Rename (p "/a", p "/b")));
  check Alcotest.int "overwritten region freed" 1
    (List.length (Ownership.Checker.live_regions (Kfs.Memfs_owned.checker fs)))

(* memfs_verified specifics ------------------------------------------------------------ *)

let test_verified_counts_checked_ops () =
  let fs = Kfs.Memfs_verified.mkfs () in
  ignore (Kfs.Memfs_verified.apply fs (Fs_spec.Create (p "/f")));
  ignore (Kfs.Memfs_verified.apply fs (Fs_spec.Stat (p "/f")));
  check Alcotest.int "monitored" 2 (Kfs.Memfs_verified.checked_ops fs)

(* journalfs specifics ------------------------------------------------------------------- *)

let test_journalfs_basic () =
  let fs = Kfs.Journalfs.Journaled_fs.mkfs () in
  check result_t "mkdir" (Ok Fs_spec.Unit) (Kfs.Journalfs.apply fs (Fs_spec.Mkdir (p "/d")));
  check result_t "create" (Ok Fs_spec.Unit) (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/d/f")));
  check result_t "write" (Ok Fs_spec.Unit)
    (Kfs.Journalfs.apply fs (Fs_spec.Write { file = p "/d/f"; off = 0; data = "hello" }));
  check result_t "read" (Ok (Fs_spec.Data "hello"))
    (Kfs.Journalfs.apply fs (Fs_spec.Read { file = p "/d/f"; off = 0; len = 10 }));
  check result_t "fsync" (Ok Fs_spec.Unit) (Kfs.Journalfs.apply fs Fs_spec.Fsync)

let test_journalfs_remount_preserves_state () =
  let fs = Kfs.Journalfs.Journaled_fs.mkfs () in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/f")));
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Write { file = p "/f"; off = 0; data = "persisted" }));
  ignore (Kfs.Journalfs.apply fs Fs_spec.Fsync);
  let dev = Kfs.Journalfs.device fs in
  let fs2 = Kfs.Journalfs.mount Kfs.Journalfs.Journaled dev in
  check Alcotest.bool "not corrupt" false (Kfs.Journalfs.is_corrupt fs2);
  check result_t "data survived remount" (Ok (Fs_spec.Data "persisted"))
    (Kfs.Journalfs.apply fs2 (Fs_spec.Read { file = p "/f"; off = 0; len = 16 }))

let test_journalfs_crash_without_fsync_recovers_committed () =
  let fs = Kfs.Journalfs.Journaled_fs.mkfs () in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/f")));
  (* No fsync; the journal committed the op anyway, so a crash that
     keeps only the device recovers it. *)
  let fs2 = Kfs.Journalfs.mount Kfs.Journalfs.Journaled (Kfs.Journalfs.device fs) in
  check result_t "create survived via journal replay"
    (Ok (Fs_spec.Attr { kind = `File; size = 0 }))
    (Kfs.Journalfs.apply fs2 (Fs_spec.Stat (p "/f")))

let test_journalfs_enospc () =
  let geometry =
    { Kfs.Journalfs.nblocks = 160; block_size = 512; jblocks = 96; ninodes = 8 }
  in
  let dev = Kblock.Blockdev.create ~nblocks:160 ~block_size:512 in
  let fs = Kfs.Journalfs.mkfs_on ~geometry Kfs.Journalfs.Journaled dev in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/f")));
  (* The data area is 54 blocks; a 60-block file fits one journal
     transaction but not the disk. *)
  check result_t "write too big" (Error Ksim.Errno.ENOSPC)
    (Kfs.Journalfs.apply fs
       (Fs_spec.Write { file = p "/f"; off = 0; data = String.make 30_720 'x' }));
  (* Inode exhaustion. *)
  let created = ref 0 in
  (try
     for i = 0 to 20 do
       match Kfs.Journalfs.apply fs (Fs_spec.Create [ Printf.sprintf "f%d" i ]) with
       | Ok _ -> incr created
       | Error Ksim.Errno.ENOSPC -> raise Exit
       | Error e -> fail (Ksim.Errno.to_string e)
     done
   with Exit -> ());
  check Alcotest.bool "inode table exhausts" true (!created < 21)

(* The kload/kharness geometry: 96 journal blocks hold at most 93 blocks
   per transaction, so a file write may stage 91 data blocks next to its
   inode and bitmap.  A larger write is refused before the mirror
   changes: Stat and a remount both still see the old file. *)
let test_journalfs_oversized_write_changes_nothing () =
  let geometry =
    { Kfs.Journalfs.nblocks = 4096; block_size = 512; jblocks = 96; ninodes = 128 }
  in
  let limit = Kfs.Journalfs.max_file_size Kfs.Journalfs.Journaled geometry in
  check Alcotest.int "91 data blocks" (91 * 512) limit;
  let dev = Kblock.Blockdev.create ~nblocks:4096 ~block_size:512 in
  let fs = Kfs.Journalfs.mkfs_on ~geometry Kfs.Journalfs.Journaled dev in
  let apply = Kfs.Journalfs.apply fs in
  let size n = Ok (Fs_spec.Attr { kind = `File; size = n }) in
  check result_t "create" (Ok Fs_spec.Unit) (apply (Fs_spec.Create (p "/f")));
  check result_t "write" (Ok Fs_spec.Unit)
    (apply (Fs_spec.Write { file = p "/f"; off = 0; data = "hello" }));
  List.iter
    (fun len ->
      check result_t
        (Printf.sprintf "%d-byte write refused" len)
        (Error Ksim.Errno.ENOSPC)
        (apply (Fs_spec.Write { file = p "/f"; off = 0; data = String.make len 'x' }));
      check result_t (Printf.sprintf "stat after %d" len) (size 5) (apply (Fs_spec.Stat (p "/f"))))
    [ 50 * 1024; 62 * 1024; limit + 1 ];
  check result_t "fsync" (Ok Fs_spec.Unit) (apply Fs_spec.Fsync);
  let remounted = Kfs.Journalfs.mount ~geometry Kfs.Journalfs.Journaled dev in
  check result_t "remount sees the old file" (size 5)
    (Kfs.Journalfs.apply remounted (Fs_spec.Stat (p "/f")));
  (* The largest write that fits still commits and survives a remount. *)
  check result_t "write at the limit" (Ok Fs_spec.Unit)
    (apply (Fs_spec.Write { file = p "/f"; off = 0; data = String.make limit 'y' }));
  check result_t "fsync again" (Ok Fs_spec.Unit) (apply Fs_spec.Fsync);
  let remounted = Kfs.Journalfs.mount ~geometry Kfs.Journalfs.Journaled dev in
  check result_t "limit survives remount" (size limit)
    (Kfs.Journalfs.apply remounted (Fs_spec.Stat (p "/f")))

(* An op refused for lack of data blocks changes nothing.  This geometry
   leaves 54 data blocks; the root directory takes one of them. *)
let small_journalfs () =
  let geometry =
    { Kfs.Journalfs.nblocks = 160; block_size = 512; jblocks = 96; ninodes = 8 }
  in
  let dev = Kblock.Blockdev.create ~nblocks:160 ~block_size:512 in
  (geometry, dev, Kfs.Journalfs.mkfs_on ~geometry Kfs.Journalfs.Journaled dev)

let ok what r = check result_t what (Ok Fs_spec.Unit) r

let test_journalfs_enospc_write_changes_nothing () =
  let geometry, dev, fs = small_journalfs () in
  let apply = Kfs.Journalfs.apply fs in
  let write file c len =
    apply (Fs_spec.Write { file = p file; off = 0; data = String.make len c })
  in
  ok "create /a" (apply (Fs_spec.Create (p "/a")));
  ok "10 blocks of a" (write "/a" 'a' 5_120);
  ok "create /b" (apply (Fs_spec.Create (p "/b")));
  ok "40 blocks of b" (write "/b" 'b' 20_480);
  (* 3 blocks are free, and /a would need 20 *)
  check result_t "growing /a is refused" (Error Ksim.Errno.ENOSPC) (write "/a" 'x' 10_240);
  check result_t "/a keeps its size"
    (Ok (Fs_spec.Attr { kind = `File; size = 5_120 }))
    (apply (Fs_spec.Stat (p "/a")));
  (* 43 blocks: /b's own 40 and the 3 free ones, unless the refused
     write left /a's blocks marked free *)
  ok "43 blocks of c into /b" (write "/b" 'c' 22_016);
  ok "fsync" (apply Fs_spec.Fsync);
  let read fs = Kfs.Journalfs.apply fs (Fs_spec.Read { file = p "/a"; off = 0; len = 10_240 }) in
  let want = Ok (Fs_spec.Data (String.make 5_120 'a')) in
  check result_t "/a reads back its own bytes" want (read fs);
  check result_t "and does after a remount" want
    (read (Kfs.Journalfs.mount ~geometry Kfs.Journalfs.Journaled dev))

let test_journalfs_enospc_mkdir_changes_nothing () =
  let geometry, dev, fs = small_journalfs () in
  let apply = Kfs.Journalfs.apply fs in
  ok "create /f" (apply (Fs_spec.Create (p "/f")));
  ok "fill the data area"
    (apply (Fs_spec.Write { file = p "/f"; off = 0; data = String.make (53 * 512) 'f' }));
  (* an empty directory still takes a block for its entry count *)
  check result_t "mkdir is refused" (Error Ksim.Errno.ENOSPC) (apply (Fs_spec.Mkdir (p "/d")));
  check result_t "no /d" (Error Ksim.Errno.ENOENT) (apply (Fs_spec.Stat (p "/d")));
  check result_t "the root lists only f" (Ok (Fs_spec.Names [ "f" ]))
    (apply (Fs_spec.Readdir (p "/")));
  ok "fsync" (apply Fs_spec.Fsync);
  let remounted = Kfs.Journalfs.mount ~geometry Kfs.Journalfs.Journaled dev in
  check result_t "a remount agrees" (Ok (Fs_spec.Names [ "f" ]))
    (Kfs.Journalfs.apply remounted (Fs_spec.Readdir (p "/")));
  (* the refused mkdir left the bitmap as it was: freeing /f makes room *)
  ok "unlink /f" (apply (Fs_spec.Unlink (p "/f")));
  ok "mkdir now fits" (apply (Fs_spec.Mkdir (p "/d")))

(* The kload geometry: a 4 KiB file is 8 data blocks.  An op stages
   only the blocks it changed: a rewrite inside the file journals one
   data block between the descriptor and the commit record, and its
   fsync checkpoints that one home block plus the journal superblock;
   a write that grows the file also stages its inode and the bitmap. *)
let test_journalfs_write_pattern () =
  let geometry =
    { Kfs.Journalfs.nblocks = 4096; block_size = 512; jblocks = 96; ninodes = 128 }
  in
  let dev = Kblock.Blockdev.create ~nblocks:4096 ~block_size:512 in
  let fs = Kfs.Journalfs.mkfs_on ~geometry Kfs.Journalfs.Journaled dev in
  let apply = Kfs.Journalfs.apply fs in
  let journaled () =
    match Kfs.Journalfs.journal_stats fs with
    | Some s -> s.Kblock.Journal.journal_block_writes
    | None -> fail "no journal"
  in
  (* the journal blocks and the device writes an op makes *)
  let writes what op =
    let j0 = journaled () and d0 = Kblock.Blockdev.writes dev in
    ok what (apply op);
    (journaled () - j0, Kblock.Blockdev.writes dev - d0)
  in
  let write off len = Fs_spec.Write { file = p "/k"; off; data = String.make len 'w' } in
  ok "create /k" (apply (Fs_spec.Create (p "/k")));
  ok "4 KiB" (apply (write 0 4096));
  ok "fsync" (apply Fs_spec.Fsync);
  check Alcotest.(pair int int) "40-byte rewrite: descriptor, one data block, commit" (3, 3)
    (writes "rewrite" (write 0 40));
  check Alcotest.(pair int int) "its fsync: one home block and the journal superblock" (0, 2)
    (writes "fsync" Fs_spec.Fsync);
  check Alcotest.(pair int int) "growing write: data, inode and bitmap blocks" (5, 5)
    (writes "append" (write 4096 40));
  check Alcotest.(pair int int) "its fsync: three home blocks and the journal superblock" (0, 4)
    (writes "fsync" Fs_spec.Fsync);
  check Alcotest.(pair int int) "a write that changes no byte does no I/O" (0, 0)
    (writes "empty write" (write 100 0))

(* A directory too big for one journal transaction is refused before any
   I/O, in both commit modes: the mirror stays equal to the disk and the
   directory keeps working. *)
let test_journalfs_oversized_directory_changes_nothing () =
  List.iter
    (fun group_commit ->
      let mode = if group_commit then "group commit: " else "per-op commit: " in
      let dev = Kblock.Blockdev.create ~nblocks:1024 ~block_size:512 in
      let fs = Kfs.Journalfs.mkfs_on ~group_commit Kfs.Journalfs.Journaled dev in
      let apply = Kfs.Journalfs.apply fs in
      let long = String.make 50_000 'n' in
      check result_t (mode ^ "long create refused") (Error Ksim.Errno.ENOSPC)
        (apply (Fs_spec.Create [ long ]));
      check result_t (mode ^ "no long file") (Error Ksim.Errno.ENOENT)
        (apply (Fs_spec.Stat [ long ]));
      ok (mode ^ "create /b") (apply (Fs_spec.Create (p "/b")));
      ok (mode ^ "fsync") (apply Fs_spec.Fsync);
      let remounted = Kfs.Journalfs.mount Kfs.Journalfs.Journaled dev in
      check result_t (mode ^ "a remount sees /b alone") (Ok (Fs_spec.Names [ "b" ]))
        (Kfs.Journalfs.apply remounted (Fs_spec.Readdir (p "/"))))
    [ false; true ]

let test_journalfs_large_file_multiblock () =
  let fs = Kfs.Journalfs.Journaled_fs.mkfs () in
  let data = String.init 2_000 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/big")));
  check result_t "multi-block write" (Ok Fs_spec.Unit)
    (Kfs.Journalfs.apply fs (Fs_spec.Write { file = p "/big"; off = 0; data }));
  check result_t "read it all back" (Ok (Fs_spec.Data data))
    (Kfs.Journalfs.apply fs (Fs_spec.Read { file = p "/big"; off = 0; len = 2_000 }));
  (* And across a remount. *)
  ignore (Kfs.Journalfs.apply fs Fs_spec.Fsync);
  let fs2 = Kfs.Journalfs.mount Kfs.Journalfs.Journaled (Kfs.Journalfs.device fs) in
  check result_t "after remount" (Ok (Fs_spec.Data data))
    (Kfs.Journalfs.apply fs2 (Fs_spec.Read { file = p "/big"; off = 0; len = 2_000 }))

let test_journalfs_direct_mode_loses_unflushed () =
  let g = Kfs.Journalfs.default_geometry in
  let dev = Kblock.Blockdev.create ~nblocks:g.nblocks ~block_size:g.block_size in
  let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
  let fs = Kfs.Journalfs.mkfs_on ~io:(Kblock.Wcache.io wc) Kfs.Journalfs.Direct dev in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/f")));
  check Alcotest.bool "the create is still in the cache" true (Kblock.Wcache.dirty_blocks wc > 0);
  Kblock.Wcache.crash wc;
  let fs2 = Kfs.Journalfs.mount Kfs.Journalfs.Direct dev in
  (* Without a journal, the unflushed create is simply gone (mkfs state). *)
  check result_t "create lost" (Error Ksim.Errno.ENOENT)
    (Kfs.Journalfs.apply fs2 (Fs_spec.Stat (p "/f")))

(* Range staging, checked on the disk: after each write or truncate and
   an Fsync, a mount of the device's image holds what the mirror does.
   64-byte blocks, so writes of up to 150 B at offsets up to 400 and
   truncates that shrink and grow cross block edges and change block
   counts. *)
let range_geometry =
  { Kfs.Journalfs.nblocks = 256; block_size = 64; jblocks = 24; ninodes = 16 }

let gen_range_op =
  let open QCheck2.Gen in
  let file = oneofl [ p "/a"; p "/b" ] in
  oneof
    [
      map3
        (fun file off data -> Fs_spec.Write { file; off; data })
        file (int_range 0 400)
        (string_size ~gen:(char_range 'a' 'z') (int_range 0 150));
      map2 (fun file size -> Fs_spec.Truncate (file, size)) file (int_range 0 600);
    ]

let remount_equals_mirror ~group_commit =
  let name = if group_commit then "journalfs(group-commit)" else "journalfs" in
  QCheck2.Test.make ~name:(name ^ ": a remount equals the mirror") ~count:60
    QCheck2.Gen.(list_size (int_range 1 30) gen_range_op)
    (fun ops ->
      let geometry = range_geometry in
      let dev = Kblock.Blockdev.create ~nblocks:geometry.nblocks ~block_size:geometry.block_size in
      let fs = Kfs.Journalfs.mkfs_on ~geometry ~group_commit Kfs.Journalfs.Journaled dev in
      let applied op = Fs_spec.equal_result (Ok Fs_spec.Unit) (Kfs.Journalfs.apply fs op) in
      let remount () =
        Kfs.Journalfs.mount ~geometry Kfs.Journalfs.Journaled
          (Kblock.Blockdev.of_image ~block_size:geometry.block_size (Kblock.Blockdev.image dev))
      in
      applied (Fs_spec.Create (p "/a"))
      && applied (Fs_spec.Create (p "/b"))
      && List.for_all
           (fun op ->
             applied op && applied Fs_spec.Fsync
             &&
             let disk = remount () in
             (not (Kfs.Journalfs.is_corrupt disk))
             && Fs_spec.equal_bindings
                  (Fs_spec.of_bindings (Kfs.Journalfs.interpret fs))
                  (Kfs.Journalfs.interpret disk))
           ops)

let journalfs_differential =
  QCheck2.Test.make ~name:"journalfs agrees with Fs_spec on random traces" ~count:60 gen_trace
    (fun ops -> agrees_with_spec (module Kfs.Journalfs.Journaled_fs) ops)

(* unionfs ----------------------------------------------------------------------------- *)

let union_with_lower ops =
  let lower = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
  List.iter (fun op -> ignore (Kvfs.Iface.instance_apply lower op)) ops;
  Kfs.Unionfs.make ~upper:(Kvfs.Iface.make (module Kfs.Memfs_typed) ()) ~lower

let test_union_reads_lower () =
  let fs =
    union_with_lower
      [ Fs_spec.Create (p "/base"); Fs_spec.Write { file = p "/base"; off = 0; data = "low" } ]
  in
  check result_t "lower file visible" (Ok (Fs_spec.Data "low"))
    (Kfs.Unionfs.apply fs (Fs_spec.Read { file = p "/base"; off = 0; len = 8 }))

let test_union_copy_up_on_write () =
  let fs =
    union_with_lower
      [ Fs_spec.Create (p "/base"); Fs_spec.Write { file = p "/base"; off = 0; data = "low" } ]
  in
  check result_t "write triggers copy-up" (Ok Fs_spec.Unit)
    (Kfs.Unionfs.apply fs (Fs_spec.Write { file = p "/base"; off = 0; data = "UP" }));
  check result_t "union sees new" (Ok (Fs_spec.Data "UPw"))
    (Kfs.Unionfs.apply fs (Fs_spec.Read { file = p "/base"; off = 0; len = 8 }))
    [@warning "-5"];
  (* The lower layer is untouched. *)
  check result_t "lower unchanged" (Ok (Fs_spec.Data "low"))
    (Kvfs.Iface.instance_apply (Kfs.Unionfs.lower fs)
       (Fs_spec.Read { file = p "/base"; off = 0; len = 8 }))

let test_union_whiteout_hides_lower () =
  let fs = union_with_lower [ Fs_spec.Create (p "/doomed") ] in
  check result_t "unlink lower file" (Ok Fs_spec.Unit)
    (Kfs.Unionfs.apply fs (Fs_spec.Unlink (p "/doomed")));
  check result_t "gone from union" (Error Ksim.Errno.ENOENT)
    (Kfs.Unionfs.apply fs (Fs_spec.Stat (p "/doomed")));
  (* Still in the lower layer, hidden by a whiteout in the upper. *)
  check result_t "lower retains it" (Ok (Fs_spec.Attr { kind = `File; size = 0 }))
    (Kvfs.Iface.instance_apply (Kfs.Unionfs.lower fs) (Fs_spec.Stat (p "/doomed")));
  (* Re-creating removes the whiteout. *)
  check result_t "recreate" (Ok Fs_spec.Unit) (Kfs.Unionfs.apply fs (Fs_spec.Create (p "/doomed")));
  check result_t "back" (Ok (Fs_spec.Attr { kind = `File; size = 0 }))
    (Kfs.Unionfs.apply fs (Fs_spec.Stat (p "/doomed")))

let test_union_readdir_merges_and_hides () =
  let fs =
    union_with_lower
      [ Fs_spec.Create (p "/one"); Fs_spec.Create (p "/two"); Fs_spec.Create (p "/three") ]
  in
  ignore (Kfs.Unionfs.apply fs (Fs_spec.Create (p "/upper_only")));
  ignore (Kfs.Unionfs.apply fs (Fs_spec.Unlink (p "/two")));
  check result_t "merged minus whiteouts"
    (Ok (Fs_spec.Names [ "one"; "three"; "upper_only" ]))
    (Kfs.Unionfs.apply fs (Fs_spec.Readdir []))

let test_union_dir_rename_exdev () =
  let fs = union_with_lower [ Fs_spec.Mkdir (p "/d") ] in
  check result_t "dir rename refused" (Error Ksim.Errno.EXDEV)
    (Kfs.Unionfs.apply fs (Fs_spec.Rename (p "/d", p "/e")))

let test_union_file_rename_across_layers () =
  let fs =
    union_with_lower
      [ Fs_spec.Create (p "/src"); Fs_spec.Write { file = p "/src"; off = 0; data = "move me" } ]
  in
  check result_t "rename lower file" (Ok Fs_spec.Unit)
    (Kfs.Unionfs.apply fs (Fs_spec.Rename (p "/src", p "/dst")));
  check result_t "dst has content" (Ok (Fs_spec.Data "move me"))
    (Kfs.Unionfs.apply fs (Fs_spec.Read { file = p "/dst"; off = 0; len = 16 }));
  check result_t "src gone" (Error Ksim.Errno.ENOENT)
    (Kfs.Unionfs.apply fs (Fs_spec.Stat (p "/src")))

let test_union_rmdir_with_lower_children_refused () =
  let fs = union_with_lower [ Fs_spec.Mkdir (p "/d"); Fs_spec.Create (p "/d/f") ] in
  check result_t "not empty (lower child)" (Error Ksim.Errno.ENOTEMPTY)
    (Kfs.Unionfs.apply fs (Fs_spec.Rmdir (p "/d")));
  ignore (Kfs.Unionfs.apply fs (Fs_spec.Unlink (p "/d/f")));
  check result_t "now removable" (Ok Fs_spec.Unit) (Kfs.Unionfs.apply fs (Fs_spec.Rmdir (p "/d")))

let test_union_interpret_merges () =
  let fs = union_with_lower [ Fs_spec.Create (p "/low"); Fs_spec.Mkdir (p "/d") ] in
  ignore (Kfs.Unionfs.apply fs (Fs_spec.Create (p "/d/up")));
  ignore (Kfs.Unionfs.apply fs (Fs_spec.Unlink (p "/low")));
  let st = Fs_spec.of_bindings (Kfs.Unionfs.interpret fs) in
  check Alcotest.bool "whiteout hidden from view" false (Fs_spec.Pathmap.mem (p "/low") st);
  check Alcotest.bool "upper file present" true (Fs_spec.Pathmap.mem (p "/d/up") st);
  check Alcotest.bool "no .wh. leaks into the view" true
    (Fs_spec.Pathmap.for_all
       (fun path _ ->
         match Fs_spec.basename path with
         | Some base -> not (Kfs.Unionfs.is_whiteout_name base)
         | None -> true)
       st)

(* cowfs -------------------------------------------------------------------------------- *)

let test_cow_snapshot_isolation () =
  let fs = Kfs.Cowfs.mkfs () in
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Create (p "/f")));
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Write { file = p "/f"; off = 0; data = "v1" }));
  (match Kfs.Cowfs.snapshot fs ~name:"s1" with Ok () -> () | Error e -> fail (Ksim.Errno.to_string e));
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Write { file = p "/f"; off = 0; data = "v2" }));
  check result_t "live sees v2" (Ok (Fs_spec.Data "v2"))
    (Kfs.Cowfs.apply fs (Fs_spec.Read { file = p "/f"; off = 0; len = 4 }));
  (match Kfs.Cowfs.rollback fs ~name:"s1" with Ok () -> () | Error e -> fail (Ksim.Errno.to_string e));
  check result_t "rollback restores v1" (Ok (Fs_spec.Data "v1"))
    (Kfs.Cowfs.apply fs (Fs_spec.Read { file = p "/f"; off = 0; len = 4 }))

let test_cow_snapshot_name_reuse () =
  let fs = Kfs.Cowfs.mkfs () in
  ignore (Kfs.Cowfs.snapshot fs ~name:"s");
  check Alcotest.bool "duplicate rejected" true (Kfs.Cowfs.snapshot fs ~name:"s" = Error Ksim.Errno.EEXIST);
  check Alcotest.(list string) "listed" [ "s" ] (Kfs.Cowfs.snapshots fs);
  check Alcotest.bool "delete ok" true (Kfs.Cowfs.delete_snapshot fs ~name:"s" = Ok ());
  check Alcotest.bool "rollback to deleted fails" true
    (Kfs.Cowfs.rollback fs ~name:"s" = Error Ksim.Errno.ENOENT)

let test_cow_diff () =
  let fs = Kfs.Cowfs.mkfs () in
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Create (p "/keep")));
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Create (p "/gone")));
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Create (p "/mod")));
  ignore (Kfs.Cowfs.snapshot fs ~name:"base");
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Unlink (p "/gone")));
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Write { file = p "/mod"; off = 0; data = "x" }));
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Create (p "/new")));
  match Kfs.Cowfs.diff fs ~since:"base" with
  | Error e -> fail (Ksim.Errno.to_string e)
  | Ok changes ->
      check Alcotest.int "three changes" 3 (List.length changes);
      check Alcotest.bool "added" true (List.mem (Kfs.Cowfs.Added (p "/new")) changes);
      check Alcotest.bool "removed" true (List.mem (Kfs.Cowfs.Removed (p "/gone")) changes);
      check Alcotest.bool "modified" true (List.mem (Kfs.Cowfs.Modified (p "/mod")) changes)

let test_cow_structural_sharing () =
  let fs = Kfs.Cowfs.mkfs () in
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Mkdir (p "/big")));
  for i = 0 to 9 do
    ignore (Kfs.Cowfs.apply fs (Fs_spec.Create [ "big"; Printf.sprintf "f%d" i ]))
  done;
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Mkdir (p "/small")));
  ignore (Kfs.Cowfs.snapshot fs ~name:"s");
  (* Touch only /small: the whole /big subtree must remain shared. *)
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Create (p "/small/x")));
  match Kfs.Cowfs.shared_nodes fs ~with_snapshot:"s" with
  | Error e -> fail (Ksim.Errno.to_string e)
  | Ok shared -> check Alcotest.bool "big subtree shared (11+ nodes)" true (shared >= 11)

let test_cow_rollback_then_diverge () =
  let fs = Kfs.Cowfs.mkfs () in
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Create (p "/f")));
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Write { file = p "/f"; off = 0; data = "v1" }));
  ignore (Kfs.Cowfs.snapshot fs ~name:"s1");
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Write { file = p "/f"; off = 0; data = "v2" }));
  ignore (Kfs.Cowfs.snapshot fs ~name:"s2");
  ignore (Kfs.Cowfs.rollback fs ~name:"s1");
  ignore (Kfs.Cowfs.apply fs (Fs_spec.Write { file = p "/f"; off = 0; data = "v3" }));
  (* Both snapshots keep their own history despite the divergence. *)
  ignore (Kfs.Cowfs.rollback fs ~name:"s2");
  check result_t "s2 intact" (Ok (Fs_spec.Data "v2"))
    (Kfs.Cowfs.apply fs (Fs_spec.Read { file = p "/f"; off = 0; len = 4 }));
  ignore (Kfs.Cowfs.rollback fs ~name:"s1");
  check result_t "s1 intact" (Ok (Fs_spec.Data "v1"))
    (Kfs.Cowfs.apply fs (Fs_spec.Read { file = p "/f"; off = 0; len = 4 }))

(* Workload ------------------------------------------------------------------------------- *)

let test_workload_deterministic () =
  let a = Kfs.Workload.generate ~seed:9 Kfs.Workload.Mixed ~ops:100 in
  let b = Kfs.Workload.generate ~seed:9 Kfs.Workload.Mixed ~ops:100 in
  check Alcotest.bool "same seed same trace" true (a = b);
  let c = Kfs.Workload.generate ~seed:10 Kfs.Workload.Mixed ~ops:100 in
  check Alcotest.bool "different seed differs" true (a <> c);
  check Alcotest.int "length" 100 (List.length a)

let test_workload_mostly_valid () =
  List.iter
    (fun profile ->
      let trace = Kfs.Workload.generate ~seed:5 profile ~ops:300 in
      let inst = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
      let ok, errs = Kfs.Workload.replay inst trace in
      check Alcotest.bool
        (Kfs.Workload.profile_to_string profile ^ " mostly valid")
        true
        (ok > errs * 2))
    Kfs.Workload.all_profiles

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "kfs"
    [
      ( "differential",
        qcheck
          [
            differential "memfs_typed" (module Kfs.Memfs_typed);
            differential "memfs_unsafe(modular)" (module Kfs.Memfs_unsafe.Modular);
            differential "memfs_owned" (module Kfs.Memfs_owned);
            differential "memfs_verified" (module Kfs.Memfs_verified);
            differential "cowfs" (module Kfs.Cowfs);
            journalfs_differential;
            journalfs_group_differential;
            remount_equals_mirror ~group_commit:false;
            remount_equals_mirror ~group_commit:true;
            owned_no_violations;
            union_differential;
          ] );
      ( "smoke",
        [
          Alcotest.test_case "memfs_typed" `Quick (smoke_stage "typed" (module Kfs.Memfs_typed));
          Alcotest.test_case "memfs_unsafe" `Quick
            (smoke_stage "unsafe" (module Kfs.Memfs_unsafe.Modular));
          Alcotest.test_case "memfs_owned" `Quick (smoke_stage "owned" (module Kfs.Memfs_owned));
          Alcotest.test_case "memfs_verified" `Quick
            (smoke_stage "verified" (module Kfs.Memfs_verified));
          Alcotest.test_case "journalfs" `Quick
            (smoke_stage "journalfs" (module Kfs.Journalfs.Journaled_fs));
          Alcotest.test_case "cowfs" `Quick (smoke_stage "cowfs" (module Kfs.Cowfs));
          Alcotest.test_case "unionfs" `Quick (smoke_stage "unionfs" (module Kfs.Unionfs));
        ] );
      ( "memfs_unsafe",
        [
          Alcotest.test_case "fault-free is correct" `Quick test_unsafe_no_faults_is_correct;
          Alcotest.test_case "uaf fault oopses" `Quick test_unsafe_uaf_fault_oopses;
          Alcotest.test_case "leak fault leaks" `Quick test_unsafe_leak_fault_leaks;
          Alcotest.test_case "wrong cast confuses" `Quick test_unsafe_wrong_cast_confuses;
          Alcotest.test_case "missing errptr check" `Quick test_unsafe_missing_errptr_check_oopses;
        ] );
      ( "memfs_owned",
        [
          Alcotest.test_case "clean run, no violations" `Quick test_owned_clean_run_no_violations;
          Alcotest.test_case "unlink frees region" `Quick test_owned_unlink_frees_region;
          Alcotest.test_case "rename-over frees target" `Quick test_owned_rename_over_frees_target;
        ] );
      ( "memfs_verified",
        [ Alcotest.test_case "counts checked ops" `Quick test_verified_counts_checked_ops ] );
      ( "journalfs",
        [
          Alcotest.test_case "basic ops" `Quick test_journalfs_basic;
          Alcotest.test_case "remount preserves" `Quick test_journalfs_remount_preserves_state;
          Alcotest.test_case "crash recovers committed" `Quick
            test_journalfs_crash_without_fsync_recovers_committed;
          Alcotest.test_case "enospc paths" `Quick test_journalfs_enospc;
          Alcotest.test_case "oversized write changes nothing" `Quick
            test_journalfs_oversized_write_changes_nothing;
          Alcotest.test_case "write refused for data blocks changes nothing" `Quick
            test_journalfs_enospc_write_changes_nothing;
          Alcotest.test_case "mkdir refused for data blocks changes nothing" `Quick
            test_journalfs_enospc_mkdir_changes_nothing;
          Alcotest.test_case "an op writes only the blocks it changed" `Quick
            test_journalfs_write_pattern;
          Alcotest.test_case "directory too big for a transaction changes nothing" `Quick
            test_journalfs_oversized_directory_changes_nothing;
          Alcotest.test_case "multi-block files" `Quick test_journalfs_large_file_multiblock;
          Alcotest.test_case "direct mode loses unflushed" `Quick
            test_journalfs_direct_mode_loses_unflushed;
        ] );
      ( "unionfs",
        [
          Alcotest.test_case "reads lower" `Quick test_union_reads_lower;
          Alcotest.test_case "copy-up on write" `Quick test_union_copy_up_on_write;
          Alcotest.test_case "whiteout hides lower" `Quick test_union_whiteout_hides_lower;
          Alcotest.test_case "readdir merges/hides" `Quick test_union_readdir_merges_and_hides;
          Alcotest.test_case "dir rename EXDEV" `Quick test_union_dir_rename_exdev;
          Alcotest.test_case "file rename across layers" `Quick
            test_union_file_rename_across_layers;
          Alcotest.test_case "rmdir with lower children" `Quick
            test_union_rmdir_with_lower_children_refused;
          Alcotest.test_case "interpret merges" `Quick test_union_interpret_merges;
        ] );
      ( "cowfs",
        [
          Alcotest.test_case "snapshot isolation" `Quick test_cow_snapshot_isolation;
          Alcotest.test_case "snapshot naming" `Quick test_cow_snapshot_name_reuse;
          Alcotest.test_case "diff" `Quick test_cow_diff;
          Alcotest.test_case "structural sharing" `Quick test_cow_structural_sharing;
          Alcotest.test_case "rollback then diverge" `Quick test_cow_rollback_then_diverge;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "mostly valid" `Quick test_workload_mostly_valid;
        ] );
    ]
