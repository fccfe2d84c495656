(* The torture rig: seeded fault schedules against the full resilience
   stack, then a crash, recovery, and a crash-safety spec re-check.

   Stack under test:

     Journalfs (Journaled)  — aborts + errors=remount-ro on permanent EIO
       Resilient            — bounded retries, deterministic backoff
         Flakydev           — failpoint-driven EIO / torn writes
           Blockdev         — the media; a crash keeps every write it got,
                              and loses the FS's in-memory state

   Everything is driven by one integer seed: the workload, the fault
   schedule (via [Ksim.Failpoint]) and the tear offsets are all derived
   from it, so every run is exactly replayable. *)

open Kspec

let check = Alcotest.check
let fail = Alcotest.fail

(* Base seeds, plus any extras from the environment: CI runs the whole
   rig again under KSIM_TORTURE_SEEDS="101,202,303" to widen the net
   without slowing the default edit loop. *)
let seeds =
  let base = [ 11; 23; 47 ] in
  match Sys.getenv_opt "KSIM_TORTURE_SEEDS" with
  | None | Some "" -> base
  | Some extra ->
      base @ (String.split_on_char ',' extra |> List.filter_map int_of_string_opt)

let geometry = Kfs.Journalfs.default_geometry

let injection =
  Alcotest.of_pp (fun ppf (i : Ksim.Failpoint.injection) ->
      Fmt.pf ppf "%s: injected (hit %d, injection %d)" i.site i.hit i.injection)

(* One full stack over a fresh device.  The registry gets its own ring so
   [Failpoint.schedule] can fingerprint the run. *)
let mk_stack ~seed =
  let dev = Kblock.Blockdev.create ~nblocks:geometry.nblocks ~block_size:geometry.block_size in
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed () in
  let flaky = Kblock.Flakydev.create ~fp (Kblock.Blockdev.io dev) in
  let resilient = Kblock.Resilient.create ~max_attempts:6 (Kblock.Flakydev.io flaky) in
  let fs = Kfs.Journalfs.mkfs_on ~io:(Kblock.Resilient.io resilient) Kfs.Journalfs.Journaled dev in
  (dev, fp, flaky, resilient, fs)

(* A deterministic workload over a small path space: creates, overwrites,
   unlinks, reads and periodic fsyncs.  Benign errors (ENOENT, EEXIST...)
   are part of the history — the spec produces the same ones. *)
let gen_ops rng n =
  let p = Fs_spec.path_of_string in
  let files = [| "/a"; "/b"; "/c"; "/d" |] in
  let pick_file () = files.(Ksim.Rng.int rng (Array.length files)) in
  List.init n (fun i ->
      match Ksim.Rng.int rng 10 with
      | 0 | 1 -> Fs_spec.Create (p (pick_file ()))
      | 2 | 3 | 4 | 5 ->
          Fs_spec.Write { file = p (pick_file ()); off = 0; data = Printf.sprintf "data-%d" i }
      | 6 -> Fs_spec.Unlink (p (pick_file ()))
      | 7 -> Fs_spec.Read { file = p (pick_file ()); off = 0; len = 16 }
      | _ -> Fs_spec.Fsync)

let arm_faults fp =
  Ksim.Failpoint.configure fp "flaky.read-eio" ~enabled:true ~probability:0.3 ();
  Ksim.Failpoint.configure fp "flaky.write-eio" ~enabled:true ~probability:0.2 ();
  Ksim.Failpoint.configure fp "flaky.torn-write" ~enabled:true ~probability:0.1 ()

(* Run the faulty workload.  Ops that die of a surfaced EIO (or EROFS
   afterwards) never changed durable state and are excluded from the spec
   history; everything else executed exactly as the spec would. *)
let run_workload fs ops =
  let executed = ref [] in
  List.iter
    (fun op ->
      match Kfs.Journalfs.apply fs op with
      | Error (Ksim.Errno.EIO | Ksim.Errno.EROFS) -> ()
      | _ -> executed := op :: !executed)
    ops;
  List.rev !executed

type outcome = {
  schedule : Ksim.Failpoint.injection list;
  injected : int;
  recovered_state : Fs_spec.state;
  executed : Fs_spec.op list;
}

let run_torture ~seed =
  let dev, fp, flaky, _resilient, fs = mk_stack ~seed in
  arm_faults fp;
  let ops = gen_ops (Ksim.Rng.of_int seed) 40 in
  let executed = run_workload fs ops in
  (* Crash: the mounted FS and its in-memory state are gone; mount
     replays the journal over a now-reliable device (the fault window is
     over). *)
  let healed = Kfs.Journalfs.mount ~geometry Kfs.Journalfs.Journaled dev in
  if Kfs.Journalfs.is_corrupt healed then fail (Printf.sprintf "seed %d: corrupt after recovery" seed);
  {
    schedule = Ksim.Failpoint.schedule fp;
    injected = Kblock.Flakydev.injected flaky;
    recovered_state = Fs_spec.of_bindings (Kfs.Journalfs.interpret healed);
    executed;
  }

(* 1. Under a seeded fault storm, a crash at the end of the workload
   recovers to a state the crash-safe spec allows. *)
let test_seeded_storm_recovers_legally () =
  List.iter
    (fun seed ->
      let o = run_torture ~seed in
      check Alcotest.bool
        (Printf.sprintf "seed %d: faults actually injected" seed)
        true (o.injected > 0);
      check Alcotest.bool
        (Printf.sprintf "seed %d: recovery allowed by crash-safe spec" seed)
        true
        (Fs_spec.Crash_safe.is_allowed_recovery o.executed o.recovered_state))
    seeds

(* 2. Replayability: the same seed produces bit-identical fault schedules
   and final states; different seeds produce different schedules. *)
let test_fault_schedules_replayable () =
  let outcomes = List.map (fun seed -> (seed, run_torture ~seed, run_torture ~seed)) seeds in
  List.iter
    (fun (seed, a, b) ->
      check
        Alcotest.(list injection)
        (Printf.sprintf "seed %d: identical schedule" seed)
        a.schedule b.schedule;
      check Alcotest.bool
        (Printf.sprintf "seed %d: identical recovered state" seed)
        true
        (Fs_spec.equal a.recovered_state b.recovered_state))
    outcomes;
  match outcomes with
  | (_, a, _) :: (_, b, _) :: _ ->
      check Alcotest.bool "distinct seeds, distinct schedules" true (a.schedule <> b.schedule)
  | _ -> fail "need at least two seeds"

(* 3. After recovery the healed FS is still crash-safe going forward:
   continue the history on the recovered image and re-check every crash
   image against the spec, seeded from the recovered state. *)
let test_post_recovery_crash_spec_recheck () =
  List.iter
    (fun seed ->
      let o = run_torture ~seed in
      (* Remount once more to get a handle backed by the same media. *)
      let p = Fs_spec.path_of_string in
      let post_ops =
        [
          Fs_spec.Create (p "/post");
          Fs_spec.Write { file = p "/post"; off = 0; data = "after the storm" };
          Fs_spec.Fsync;
          Fs_spec.Write { file = p "/post"; off = 0; data = "second wind" };
        ]
      in
      (* Rebuild the same pre-crash media by replaying the torture run
         deterministically, then crash + mount — [run_torture] already did
         exactly this, so just redo it to own the device. *)
      let dev, fp, _, _, fs = mk_stack ~seed in
      arm_faults fp;
      let executed = run_workload fs (gen_ops (Ksim.Rng.of_int seed) 40) in
      check Alcotest.bool "same executed history" true (executed = o.executed);
      (* The healed FS runs over a write-back cache on the same device, so
         every later crash image is a cache-loss residue. *)
      let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
      let healed =
        Kfs.Journalfs.mount ~geometry ~io:(Kblock.Wcache.io wc) Kfs.Journalfs.Journaled dev
      in
      let disk = Kblock.Wcache.disk dev wc in
      let start = Fs_spec.of_bindings (Kfs.Journalfs.interpret healed) in
      (* The spec continues from the recovered state: durable = volatile =
         what recovery produced. *)
      let cstate = ref { Fs_spec.Crash_safe.durable = start; volatile = start } in
      let allowed = ref [ start ] in
      let images = ref 0 in
      List.iteri
        (fun i op ->
          (* Crash instants before an fsync are judged before it. *)
          (match op with Fs_spec.Fsync -> Kblock.Wcache.settle disk | _ -> ());
          (match Kfs.Journalfs.apply healed op with
          | Ok _ -> ()
          | Error e -> fail (Printf.sprintf "seed %d post-op %d: %s" seed i (Ksim.Errno.to_string e)));
          let c', _ = Fs_spec.Crash_safe.step !cstate op in
          cstate := c';
          (* Crash here may recover to any volatile state since the last
             fsync; fsync collapses the allowed set. *)
          (match op with
          | Fs_spec.Fsync -> allowed := [ c'.Fs_spec.Crash_safe.volatile ]
          | _ -> allowed := c'.Fs_spec.Crash_safe.volatile :: !allowed);
          List.iteri
            (fun image_index dev' ->
              incr images;
              let image = Kfs.Journalfs.mount ~geometry Kfs.Journalfs.Journaled dev' in
              let recovered = Kfs.Journalfs.interpret image in
              if not (List.exists (fun s -> Fs_spec.equal_bindings s recovered) !allowed) then
                fail
                  (Printf.sprintf "seed %d: illegal recovery after post-op %d, image %d" seed i
                     image_index))
            (Kblock.Wcache.crash_devices disk ~limit:16))
        post_ops;
      check Alcotest.bool
        (Printf.sprintf "seed %d: more images than crash points" seed)
        true
        (!images > List.length post_ops))
    seeds

(* 4. Graceful degradation: a persistent write failure (every attempt
   fails) flips the FS to errors=remount-ro instead of corrupting it. *)
let test_permanent_failure_remounts_readonly () =
  let dev, fp, _flaky, resilient, fs = mk_stack ~seed:5 in
  let p = Fs_spec.path_of_string in
  (* A little durable history first, while the device is healthy. *)
  (match Kfs.Journalfs.apply fs (Fs_spec.Create (p "/keep")) with
  | Ok _ -> ()
  | Error e -> fail (Ksim.Errno.to_string e));
  (match Kfs.Journalfs.apply fs (Fs_spec.Write { file = p "/keep"; off = 0; data = "safe" }) with
  | Ok _ -> ()
  | Error e -> fail (Ksim.Errno.to_string e));
  (match Kfs.Journalfs.apply fs Fs_spec.Fsync with
  | Ok _ -> ()
  | Error e -> fail (Ksim.Errno.to_string e));
  (* Now the device fails every write, forever: retries must exhaust. *)
  Ksim.Failpoint.configure fp "flaky.write-eio" ~enabled:true ~probability:1.0 ();
  (match Kfs.Journalfs.apply fs (Fs_spec.Create (p "/doomed")) with
  | Error Ksim.Errno.EIO -> ()
  | r -> fail ("expected EIO, got " ^ Fmt.str "%a" (Fs_spec.pp_result) r));
  check Alcotest.bool "remounted read-only" true (Kfs.Journalfs.is_readonly fs);
  check Alcotest.bool "permanent verdict recorded" true
    (Kblock.Resilient.permanent_failures resilient >= 1);
  (* ...and the latch behaves like ext4 errors=remount-ro. *)
  check Alcotest.bool "subsequent write EROFS" true
    (Kfs.Journalfs.apply fs (Fs_spec.Write { file = p "/keep"; off = 0; data = "no" })
    = Error Ksim.Errno.EROFS);
  check Alcotest.bool "subsequent unlink EROFS" true
    (Kfs.Journalfs.apply fs (Fs_spec.Unlink (p "/keep")) = Error Ksim.Errno.EROFS);
  check Alcotest.bool "reads still work" true
    (Kfs.Journalfs.apply fs (Fs_spec.Read { file = p "/keep"; off = 0; len = 4 })
    = Ok (Fs_spec.Data "safe"));
  check Alcotest.bool "fsync is a quiet no-op" true
    (Kfs.Journalfs.apply fs Fs_spec.Fsync = Ok Fs_spec.Unit);
  (* Crash-safety held through the abort: recovery sees the synced state. *)
  let healed = Kfs.Journalfs.mount ~geometry Kfs.Journalfs.Journaled dev in
  check Alcotest.bool "not corrupt" false (Kfs.Journalfs.is_corrupt healed);
  let executed =
    [
      Fs_spec.Create (p "/keep");
      Fs_spec.Write { file = p "/keep"; off = 0; data = "safe" };
      Fs_spec.Fsync;
    ]
  in
  check Alcotest.bool "recovery allowed by crash-safe spec" true
    (Fs_spec.Crash_safe.is_allowed_recovery executed
       (Fs_spec.of_bindings (Kfs.Journalfs.interpret healed)))

(* 5. The journal's abort accounting is visible: a failed commit bumps
   aborted_commits and leaves pending alone. *)
let test_aborted_commit_counted () =
  let _, fp, _, _, fs = mk_stack ~seed:9 in
  Ksim.Failpoint.configure fp "flaky.write-eio" ~enabled:true ~probability:1.0 ();
  let p = Fs_spec.path_of_string in
  (match Kfs.Journalfs.apply fs (Fs_spec.Create (p "/x")) with
  | Error Ksim.Errno.EIO -> ()
  | _ -> fail "expected EIO");
  match Kfs.Journalfs.journal_stats fs with
  | None -> fail "journaled fs has stats"
  | Some s ->
      check Alcotest.bool "abort counted" true (s.Kblock.Journal.aborted_commits >= 1)

(* --- Supervised-mount torture: module panics mid-workload ---------------

   The same journaled resilience stack, but mounted behind a
   [Ksim.Supervisor] with the panic shim ([Iface.panicky]) between the
   VFS and the file system.  A failpoint-scheduled oops must be contained
   to an [EIO], drain in-flight calls with [EINTR], microreboot by
   remounting the same device (journal replay), and strand pre-oops fds
   at the dead epoch ([ESTALE]) — all on the simulated clock, so every
   run replays bit-identically from the seed. *)

let sup_p = Fs_spec.path_of_string

let mk_supervised_stack ?policy ~seed () =
  let dev = Kblock.Blockdev.create ~nblocks:geometry.nblocks ~block_size:geometry.block_size in
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed () in
  let flaky = Kblock.Flakydev.create ~fp (Kblock.Blockdev.io dev) in
  let resilient = Kblock.Resilient.create ~max_attempts:6 (Kblock.Flakydev.io flaky) in
  let io = Kblock.Resilient.io resilient in
  let wrap fs =
    Kvfs.Iface.panicky ~fp (Kvfs.Iface.instance (module Kfs.Journalfs.Journaled_fs) fs)
  in
  let remake () = wrap (Kfs.Journalfs.mount ~geometry ~io Kfs.Journalfs.Journaled dev) in
  let first = Kfs.Journalfs.mkfs_on ~io Kfs.Journalfs.Journaled dev in
  let stats = Ksim.Kstats.create () in
  let vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount vfs ~at:(sup_p "/") ~remake ?policy ~stats (wrap first) with
  | Ok () -> ()
  | Error e -> fail ("supervised mount: " ^ Ksim.Errno.to_string e));
  (dev, fp, vfs, stats)

(* Ops that die of a contained oops ([EIO]), an [EINTR] drain, or a
   stale handle never reached durable state, so — like the surfaced-EIO
   exclusion in [run_workload] — they are not part of the spec history. *)
let run_supervised_workload vfs ops =
  let executed = ref [] in
  List.iter
    (fun op ->
      match Kvfs.Vfs.apply vfs op with
      | Error (Ksim.Errno.EIO | Ksim.Errno.EROFS | Ksim.Errno.EINTR | Ksim.Errno.ESTALE) -> ()
      | _ -> executed := op :: !executed)
    ops;
  List.rev !executed

type sup_outcome = {
  s_schedule : Ksim.Failpoint.injection list;
  s_executed : Fs_spec.op list;
  s_recovered : Fs_spec.state;
  s_epoch : int;
  s_oopses : int;
  s_clock : int;
  s_stale_errno : Ksim.Errno.t option;  (* what the pre-oops fd answered *)
  s_delta : (string * int) list;
}

let run_supervised_torture ~seed =
  let dev, fp, vfs, stats = mk_supervised_stack ~seed () in
  let fops = Kvfs.File_ops.create vfs in
  let before = Ksim.Kstats.snapshot stats in
  let front, back =
    let rec split i acc rest =
      if i = 0 then (List.rev acc, rest)
      else match rest with [] -> (List.rev acc, []) | x :: tl -> split (i - 1) (x :: acc) tl
    in
    split 20 [] (gen_ops (Ksim.Rng.of_int seed) 40)
  in
  let exec1 = run_supervised_workload vfs front in
  (* A handle minted against the healthy generation, about to be
     stranded. *)
  let exec_handle = run_supervised_workload vfs [ Fs_spec.Create (sup_p "/handle") ] in
  let fd =
    match Kvfs.File_ops.openf fops "/handle" with
    | Ok fd -> fd
    | Error e -> fail (Printf.sprintf "seed %d: open /handle: %s" seed (Ksim.Errno.to_string e))
  in
  (* The oops: the next entry into the module panics.  Containment turns
     it into EIO, the quiesce window drains with EINTR, and the first
     call past the backoff deadline remounts with journal replay. *)
  Ksim.Failpoint.configure fp "module.panic" ~enabled:true ~times:1 ();
  let exec2 = run_supervised_workload vfs back in
  let sup =
    match Kvfs.Vfs.supervisor_at vfs (sup_p "/") with
    | Some sup -> sup
    | None -> fail (Printf.sprintf "seed %d: mount is not supervised" seed)
  in
  let stale_errno =
    match Kvfs.File_ops.read fops fd ~len:8 with Error e -> Some e | Ok _ -> None
  in
  let outcome =
    {
      s_schedule = Ksim.Failpoint.schedule fp;
      s_executed = exec1 @ exec_handle @ exec2;
      s_recovered = Fs_spec.of_bindings (Kvfs.Vfs.interpret vfs);
      s_epoch = Ksim.Supervisor.epoch sup;
      s_oopses = Ksim.Supervisor.oopses sup;
      s_clock = Ksim.Supervisor.clock sup;
      s_stale_errno = stale_errno;
      s_delta = Ksim.Kstats.diff ~before ~after:(Ksim.Kstats.snapshot stats);
    }
  in
  (* No unexpected escalation: one contained panic must never burn the
     whole restart budget. *)
  (match Ksim.Supervisor.state sup with
  | Ksim.Supervisor.Healthy -> ()
  | s ->
      fail
        (Printf.sprintf "seed %d: unexpected supervisor state %s" seed
           (Ksim.Supervisor.state_to_string s)));
  (dev, outcome)

(* 6. A module panic mid-workload is contained and microrebooted, the
   pre-oops fd answers ESTALE, and the recovered state — including a
   subsequent device crash — stays inside the crash-safety spec. *)
let test_supervised_panic_recovers () =
  List.iter
    (fun seed ->
      let dev, o = run_supervised_torture ~seed in
      check Alcotest.int (Printf.sprintf "seed %d: exactly one oops" seed) 1 o.s_oopses;
      check Alcotest.int (Printf.sprintf "seed %d: one microreboot, epoch 1" seed) 1 o.s_epoch;
      (match o.s_stale_errno with
      | Some Ksim.Errno.ESTALE -> ()
      | Some e ->
          fail (Printf.sprintf "seed %d: stale fd answered %s" seed (Ksim.Errno.to_string e))
      | None -> fail (Printf.sprintf "seed %d: stale fd still worked" seed));
      check
        Alcotest.(option int)
        (Printf.sprintf "seed %d: stats counted the oops" seed)
        (Some 1)
        (List.assoc_opt "supervisor.oopses" o.s_delta);
      check Alcotest.bool
        (Printf.sprintf "seed %d: stats counted the restart and the stale handle" seed)
        true
        (List.assoc_opt "supervisor.restarts" o.s_delta = Some 1
        && match List.assoc_opt "supervisor.stale_handles" o.s_delta with
           | Some n -> n >= 1
           | None -> false);
      check Alcotest.bool
        (Printf.sprintf "seed %d: live recovered state allowed by crash-safe spec" seed)
        true
        (Fs_spec.Crash_safe.is_allowed_recovery o.s_executed o.s_recovered);
      (* And a real crash on top of the microreboot is still legal. *)
      let healed = Kfs.Journalfs.mount ~geometry Kfs.Journalfs.Journaled dev in
      if Kfs.Journalfs.is_corrupt healed then
        fail (Printf.sprintf "seed %d: corrupt after post-reboot crash" seed);
      check Alcotest.bool
        (Printf.sprintf "seed %d: post-crash recovery allowed by crash-safe spec" seed)
        true
        (Fs_spec.Crash_safe.is_allowed_recovery o.s_executed
           (Fs_spec.of_bindings (Kfs.Journalfs.interpret healed))))
    seeds

(* 7. The whole supervised run — schedule, executed history, recovered
   state, epochs, the simulated clock — replays bit-identically from the
   seed. *)
let test_supervised_torture_replayable () =
  List.iter
    (fun seed ->
      let _, a = run_supervised_torture ~seed in
      let _, b = run_supervised_torture ~seed in
      check
        Alcotest.(list injection)
        (Printf.sprintf "seed %d: identical schedule" seed)
        a.s_schedule b.s_schedule;
      check Alcotest.bool
        (Printf.sprintf "seed %d: identical executed history" seed)
        true (a.s_executed = b.s_executed);
      check Alcotest.bool
        (Printf.sprintf "seed %d: identical recovered state" seed)
        true
        (Fs_spec.equal a.s_recovered b.s_recovered);
      check
        Alcotest.(pair int int)
        (Printf.sprintf "seed %d: identical epoch/clock" seed)
        (a.s_epoch, a.s_clock) (b.s_epoch, b.s_clock);
      check
        Alcotest.(list (pair string int))
        (Printf.sprintf "seed %d: identical stats delta" seed)
        a.s_delta b.s_delta)
    seeds

(* 8. Budget exhaustion: a module that panics on every entry burns the
   restart budget, escalates to Failed (one escalation counted), and
   degrades to reads-only — stale fds still answer ESTALE, mutations
   answer EIO, and nothing ever unwinds as an exception. *)
let test_supervised_escalation_degrades_readonly () =
  let _dev, fp, vfs, stats = mk_supervised_stack ~seed:7 () in
  let must label op =
    match Kvfs.Vfs.apply vfs op with
    | Ok _ -> ()
    | Error e -> fail (label ^ ": " ^ Ksim.Errno.to_string e)
  in
  must "create" (Fs_spec.Create (sup_p "/keep"));
  must "write" (Fs_spec.Write { file = sup_p "/keep"; off = 0; data = "safe" });
  must "fsync" Fs_spec.Fsync;
  let fops = Kvfs.File_ops.create vfs in
  let stale_fd =
    match Kvfs.File_ops.openf fops "/keep" with
    | Ok fd -> fd
    | Error e -> fail ("open /keep: " ^ Ksim.Errno.to_string e)
  in
  let before = Ksim.Kstats.snapshot stats in
  (* Default budget is 3 restarts: four panics exhaust it (the initial
     oops plus one per rebooted generation). *)
  Ksim.Failpoint.configure fp "module.panic" ~enabled:true ~times:4 ();
  let results =
    List.init 32 (fun i ->
        Kvfs.Vfs.apply vfs (Fs_spec.Write { file = sup_p "/keep"; off = 0; data = Printf.sprintf "w%d" i }))
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok _ -> fail (Printf.sprintf "write %d succeeded during the panic storm" i)
      | Error (Ksim.Errno.EIO | Ksim.Errno.EINTR) -> ()
      | Error e -> fail (Printf.sprintf "write %d: unexpected %s" i (Ksim.Errno.to_string e)))
    results;
  let sup =
    match Kvfs.Vfs.supervisor_at vfs (sup_p "/") with
    | Some sup -> sup
    | None -> fail "mount is not supervised"
  in
  check Alcotest.string "escalated to Failed" "failed"
    (Ksim.Supervisor.state_to_string (Ksim.Supervisor.state sup));
  let delta = Ksim.Kstats.diff ~before ~after:(Ksim.Kstats.snapshot stats) in
  check Alcotest.(option int) "four oopses counted" (Some 4)
    (List.assoc_opt "supervisor.oopses" delta);
  check Alcotest.(option int) "three restarts counted" (Some 3)
    (List.assoc_opt "supervisor.restarts" delta);
  check Alcotest.(option int) "one escalation counted" (Some 1)
    (List.assoc_opt "supervisor.escalations" delta);
  (* Degraded mode: reads-only.  The synced pre-storm data is served;
     mutations answer EIO; the pre-storm fd is stale even here. *)
  check Alcotest.bool "degraded read serves synced data" true
    (Kvfs.Vfs.apply vfs (Fs_spec.Read { file = sup_p "/keep"; off = 0; len = 4 })
    = Ok (Fs_spec.Data "safe"));
  check Alcotest.bool "degraded mutation is EIO" true
    (Kvfs.Vfs.apply vfs (Fs_spec.Unlink (sup_p "/keep")) = Error Ksim.Errno.EIO);
  check Alcotest.bool "stale fd is ESTALE in degraded mode" true
    (Kvfs.File_ops.read fops stale_fd ~len:4 = Error Ksim.Errno.ESTALE);
  (* A fresh fd minted at the final epoch reads through the degraded
     mount. *)
  match Kvfs.File_ops.openf fops "/keep" with
  | Error e -> fail ("reopen /keep: " ^ Ksim.Errno.to_string e)
  | Ok fd ->
      check Alcotest.bool "fresh fd reads in degraded mode" true
        (Kvfs.File_ops.read fops fd ~len:4 = Ok "safe")

let () =
  Alcotest.run "torture"
    [
      ( "fault-torture",
        [
          Alcotest.test_case "seeded storm recovers legally" `Quick
            test_seeded_storm_recovers_legally;
          Alcotest.test_case "fault schedules replayable" `Quick test_fault_schedules_replayable;
          Alcotest.test_case "post-recovery crash-spec re-check" `Quick
            test_post_recovery_crash_spec_recheck;
          Alcotest.test_case "permanent failure remounts read-only" `Quick
            test_permanent_failure_remounts_readonly;
          Alcotest.test_case "aborted commit counted" `Quick test_aborted_commit_counted;
        ] );
      ( "supervision-torture",
        [
          Alcotest.test_case "panic mid-workload recovers via microreboot" `Quick
            test_supervised_panic_recovers;
          Alcotest.test_case "supervised torture replayable" `Quick
            test_supervised_torture_replayable;
          Alcotest.test_case "budget exhaustion degrades to reads-only" `Quick
            test_supervised_escalation_degrades_readonly;
        ] );
    ]
