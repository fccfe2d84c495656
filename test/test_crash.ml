(* The crash-safety experiment (EXP-CRASH): the journaled file system must
   recover to a spec-allowed state after a crash at every point of every
   trace; the direct (unjournaled) twin must be convicted.  Every check is
   Krefine over the write-back disk: crash images are cache-loss residues,
   recovery is a replay mount, and lockstep refinement runs alongside. *)

open Kspec

let check = Alcotest.check
let p = Fs_spec.path_of_string

(* Small deterministic traces that mix metadata and data, with an early
   fsync so lost updates are actually illegal. *)
let trace_with_fsync =
  [
    Fs_spec.Mkdir (p "/d");
    Fs_spec.Create (p "/d/f");
    Fs_spec.Write { file = p "/d/f"; off = 0; data = "synced" };
    Fs_spec.Fsync;
    Fs_spec.Write { file = p "/d/f"; off = 0; data = "later1" };
    Fs_spec.Create (p "/d/g");
    Fs_spec.Rename (p "/d/g", p "/d/h");
    Fs_spec.Write { file = p "/d/h"; off = 0; data = "tail" };
    Fs_spec.Unlink (p "/d/f");
  ]

let generated_trace seed ops =
  Kfs.Workload.generate ~seed Kfs.Workload.Mixed ~ops
  |> List.filter (fun op ->
         match op with
         | Fs_spec.Write { data; _ } -> String.length data <= 256
         | _ -> true)

let crash_check ?group_commit ?(mode = Kfs.Journalfs.Journaled) ~images trace =
  Kharness.crash_check ~images (Kharness.journalfs_machine ?group_commit mode) trace

let test_journaled_safe_fixed_trace () =
  let cov = crash_check ~images:16 trace_with_fsync in
  check Alcotest.int "every op crashed" (List.length trace_with_fsync) cov.Krefine.crash_points;
  (* Cache-loss residues give more than one image per crash point: the
     check is not vacuous. *)
  check Alcotest.bool "more images than crash points" true
    (cov.Krefine.crash_images > cov.Krefine.crash_points);
  check Alcotest.(list Alcotest.string) "no failures" []
    (List.map (Fmt.str "%a" Krefine.pp_divergence) cov.Krefine.divergences)

let test_group_commit_safe_generated_traces () =
  (* Group commit defers durability but must never produce a non-prefix
     state: the whole uncommitted batch disappears at once. *)
  List.iter
    (fun seed ->
      let cov = crash_check ~group_commit:true ~images:8 (generated_trace seed 20) in
      check Alcotest.bool (Printf.sprintf "group seed %d crash-safe" seed) true
        (Krefine.is_clean cov))
    [ 11; 12; 13 ]

let test_group_commit_functional () =
  (* Group mode must be functionally identical to per-op commit. *)
  let trace = generated_trace 99 60 in
  let a = Kfs.Journalfs.Journaled_fs.mkfs () in
  let b = Kfs.Journalfs.Journaled_group_fs.mkfs () in
  List.iter2
    (fun _ op ->
      let ra = Kfs.Journalfs.apply a op and rb = Kfs.Journalfs.apply b op in
      check Alcotest.bool "same result" true (Fs_spec.equal_result ra rb))
    trace trace;
  check Alcotest.bool "same final state" true
    (Fs_spec.equal_bindings
       (Fs_spec.of_bindings (Kfs.Journalfs.interpret a))
       (Kfs.Journalfs.interpret b))

let test_journaled_safe_generated_traces () =
  List.iter
    (fun seed ->
      let cov = crash_check ~images:8 (generated_trace seed 20) in
      check Alcotest.bool (Printf.sprintf "seed %d crash-safe" seed) true (Krefine.is_clean cov))
    [ 1; 2; 3; 4; 5 ]

let test_direct_mode_convicted () =
  (* The same engine, no journal: some crash image must violate the
     crash-safe spec on a trace with an early fsync. *)
  let violations = ref 0 in
  List.iter
    (fun seed ->
      let trace = Fs_spec.Fsync :: trace_with_fsync @ generated_trace seed 15 in
      let cov = crash_check ~mode:Kfs.Journalfs.Direct ~images:16 trace in
      if not (Krefine.is_clean cov) then incr violations)
    [ 1; 2; 3 ];
  check Alcotest.bool "unjournaled FS violates crash safety" true (!violations > 0)

(* The FS below writes straight to the device, which keeps every write:
   a crash loses the mounted instance's memory, so each test remounts the
   device as the FS left it. *)
let test_group_commit_crash_loses_whole_batch () =
  (* Without an fsync, a crash may erase the entire uncommitted batch —
     and must erase it atomically (a legal prefix), never partially. *)
  let fs = Kfs.Journalfs.mkfs_on ~group_commit:true Kfs.Journalfs.Journaled
             (Kblock.Blockdev.create ~nblocks:1024 ~block_size:512) in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/a")));
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/b")));
  let fs2 =
    Kfs.Journalfs.mount ~group_commit:true Kfs.Journalfs.Journaled (Kfs.Journalfs.device fs)
  in
  (* Both creates were in the open (uncommitted) transaction: both gone. *)
  check Alcotest.bool "a gone" true
    (Kfs.Journalfs.apply fs2 (Fs_spec.Stat (p "/a")) = Error Ksim.Errno.ENOENT);
  check Alcotest.bool "b gone" true
    (Kfs.Journalfs.apply fs2 (Fs_spec.Stat (p "/b")) = Error Ksim.Errno.ENOENT);
  (* With an fsync, the batch commits and survives. *)
  let fs3 = Kfs.Journalfs.mkfs_on ~group_commit:true Kfs.Journalfs.Journaled
              (Kblock.Blockdev.create ~nblocks:1024 ~block_size:512) in
  ignore (Kfs.Journalfs.apply fs3 (Fs_spec.Create (p "/a")));
  ignore (Kfs.Journalfs.apply fs3 Fs_spec.Fsync);
  let fs4 =
    Kfs.Journalfs.mount ~group_commit:true Kfs.Journalfs.Journaled (Kfs.Journalfs.device fs3)
  in
  check Alcotest.bool "synced batch survives" true
    (Kfs.Journalfs.apply fs4 (Fs_spec.Stat (p "/a"))
    = Ok (Fs_spec.Attr { kind = `File; size = 0 }))

let test_journal_replay_counted () =
  (* Crash after un-checkpointed commits: remount must replay. *)
  let fs = Kfs.Journalfs.Journaled_fs.mkfs () in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/a")));
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/b")));
  let fs2 = Kfs.Journalfs.mount Kfs.Journalfs.Journaled (Kfs.Journalfs.device fs) in
  match Kfs.Journalfs.journal_stats fs2 with
  | Some stats ->
      check Alcotest.bool "replayed transactions" true (stats.Kblock.Journal.replayed_txs >= 1)
  | None -> Alcotest.fail "journal missing"

let test_fsync_checkpoint_makes_replay_unnecessary () =
  let fs = Kfs.Journalfs.Journaled_fs.mkfs () in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/a")));
  ignore (Kfs.Journalfs.apply fs Fs_spec.Fsync);
  let fs2 = Kfs.Journalfs.mount Kfs.Journalfs.Journaled (Kfs.Journalfs.device fs) in
  (match Kfs.Journalfs.journal_stats fs2 with
  | Some stats -> check Alcotest.int "nothing to replay" 0 stats.Kblock.Journal.replayed_txs
  | None -> Alcotest.fail "journal missing");
  check Alcotest.bool "state intact" true
    (Kfs.Journalfs.apply fs2 (Fs_spec.Stat (p "/a"))
    = Ok (Fs_spec.Attr { kind = `File; size = 0 }))

(* QCheck: random traces, journaled mode, always crash-safe. *)
let prop_journaled_always_crash_safe =
  QCheck2.Test.make ~name:"journalfs crash-safe on random traces" ~count:15
    QCheck2.Gen.(int_range 10 999)
    (fun seed ->
      let trace = generated_trace seed 12 in
      Krefine.is_clean (crash_check ~images:6 trace))

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "crash"
    [
      ( "exp-crash",
        Alcotest.test_case "journaled safe (fixed trace)" `Quick test_journaled_safe_fixed_trace
        :: Alcotest.test_case "journaled safe (generated)" `Quick
             test_journaled_safe_generated_traces
        :: Alcotest.test_case "group commit crash-safe" `Quick
             test_group_commit_safe_generated_traces
        :: Alcotest.test_case "group commit functional" `Quick test_group_commit_functional
        :: Alcotest.test_case "group commit loses whole batch" `Quick
             test_group_commit_crash_loses_whole_batch
        :: Alcotest.test_case "direct mode convicted" `Quick test_direct_mode_convicted
        :: Alcotest.test_case "replay counted" `Quick test_journal_replay_counted
        :: Alcotest.test_case "fsync checkpoint" `Quick test_fsync_checkpoint_makes_replay_unnecessary
        :: qcheck [ prop_journaled_always_crash_safe ] );
    ]
