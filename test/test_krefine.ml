(* krefine at scale: the registered kharness machines (journalfs as an
   IOSystem, cowfs, the supervised-microreboot path) checked against the
   abstract map over real kload-recorded traffic, determinism of the
   verdict in the seed, and the divergence reporters — a deliberately
   buggy machine must be convicted with a minimal counterexample, and a
   seeded replay-skip fault in the microreboot remount must be caught by
   the lockstep check — the Fsync window, which admits crash images
   from before an fsync returned but still convicts an fsync that syncs
   nothing, and the checker's own well-formedness check, which reports
   an orphaned path as an invariant violation in lockstep, on a crash
   image and from the monitor. *)

open Kspec

let check = Alcotest.check
let p = Fs_spec.path_of_string

(* One recorded trace per (target, seed), shared across tests: recording
   runs a full kload population, so cache it. *)
let trace_cache : (int * int, Fs_spec.op list) Hashtbl.t = Hashtbl.create 4

let trace ~target_ops ~seed =
  match Hashtbl.find_opt trace_cache (target_ops, seed) with
  | Some t -> t
  | None ->
      let t = Kharness.recorded_trace ~target_ops ~seed () in
      Hashtbl.add trace_cache (target_ops, seed) t;
      t

(* The CI seed hook: KSIM_REFINE_SEEDS="3,17" widens the sweep without a
   code change.  Default stays cheap. *)
let refine_seeds () =
  match Sys.getenv_opt "KSIM_REFINE_SEEDS" with
  | None | Some "" -> [ 11 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x))

let quick_config =
  { Krefine.default_config with Krefine.images_per_op = 4; crash_every = 4 }

let test_trace_recording () =
  let t = trace ~target_ops:800 ~seed:11 in
  check Alcotest.bool "at least target ops" true (List.length t >= 800);
  (* deterministic in the seed *)
  let t' = trace ~target_ops:800 ~seed:11 in
  check Alcotest.bool "deterministic" true (t = t');
  check Alcotest.bool "has fsyncs" true (List.exists (fun op -> op = Fs_spec.Fsync) t)

let test_journalfs_refines () =
  List.iter
    (fun seed ->
      let t = trace ~target_ops:800 ~seed in
      let cov =
        Kharness.run ~config:{ quick_config with Krefine.seed } Kharness.journalfs t
      in
      if not (Krefine.is_clean cov) then
        Alcotest.failf "journalfs diverged (seed %d): %a" seed Krefine.pp_coverage cov;
      check Alcotest.int "every op checked" (List.length t) cov.Krefine.ops;
      check Alcotest.bool "crash points enumerated" true (cov.Krefine.crash_points > 0);
      check Alcotest.bool "crash images checked" true (cov.Krefine.crash_images > 0))
    (refine_seeds ())

let test_cowfs_refines () =
  let t = trace ~target_ops:800 ~seed:11 in
  let cov = Kharness.run ~config:quick_config Kharness.cowfs t in
  if not (Krefine.is_clean cov) then
    Alcotest.failf "cowfs diverged: %a" Krefine.pp_coverage cov;
  check Alcotest.int "every op checked" (List.length t) cov.Krefine.ops

let test_microreboot_refines () =
  let t = trace ~target_ops:800 ~seed:11 in
  (* lockstep across ~ops/64 injected panics; crash images exercise the
     reboot-into-crashed-device path on a sparser cadence *)
  let config = { quick_config with Krefine.images_per_op = 2; crash_every = 16 } in
  let cov = Kharness.run ~config Kharness.microreboot t in
  if not (Krefine.is_clean cov) then
    Alcotest.failf "microreboot diverged: %a" Krefine.pp_coverage cov;
  check Alcotest.bool "panics actually injected" true
    (List.length t >= 2 * Kharness.panic_cadence);
  check Alcotest.bool "crash images checked" true (cov.Krefine.crash_images > 0)

let test_verdict_deterministic () =
  let t = trace ~target_ops:800 ~seed:11 in
  let fp1 = Krefine.coverage_fingerprint (Kharness.run ~config:quick_config Kharness.journalfs t) in
  let fp2 = Krefine.coverage_fingerprint (Kharness.run ~config:quick_config Kharness.journalfs t) in
  check Alcotest.string "byte-identical verdict across replays" fp1 fp2;
  let other = { quick_config with Krefine.seed = 99; crash_every = 2 } in
  let fp3 = Krefine.coverage_fingerprint (Kharness.run ~config:other Kharness.journalfs t) in
  check Alcotest.bool "different config, different fingerprint" true (fp1 <> fp3)

(* Coverage is a pure function of machine, trace and config, so these
   fingerprints pin what the registered harnesses check on one small
   sweep: a change to how crash images are built must leave every one
   byte-identical. *)
let test_pinned_fingerprints () =
  let t = trace ~target_ops:150 ~seed:11 in
  let config =
    { Krefine.default_config with Krefine.seed = 11; images_per_op = 4; crash_every = 3 }
  in
  List.iter
    (fun (name, expected) ->
      match Kharness.find name with
      | None -> Alcotest.failf "%s is not registered" name
      | Some e ->
          check Alcotest.string (name ^ " fingerprint") expected
            (Krefine.coverage_fingerprint (Kharness.run ~config e t)))
    [
      ("journalfs", "6fb6fbf21cbb6a797e980e046b95a6f1");
      ("cowfs", "069a0a278daa0719c5dc6ade589d0330");
      ("journalfs.microreboot", "a7d964ba8360cfdffe5ea0c4257cf5f3");
    ]

(* Divergence reporting -------------------------------------------------- *)

module Lost_rename = struct
  type vars = Kfs.Memfs_typed.fs

  let name = "memfs+lost-rename"
  let init () = Kfs.Memfs_typed.mkfs ()

  (* the deliberate bug: rename drops the destination dirent *)
  let step v op =
    match op with
    | Fs_spec.Rename (src, _) -> (v, Kfs.Memfs_typed.apply v (Fs_spec.Unlink src))
    | _ -> (v, Kfs.Memfs_typed.apply v op)

  let interp = Kfs.Memfs_typed.interpret
  let inv _ = true
  let crash_images _ ~limit:_ = []
end

let test_lost_rename_minimal_counterexample () =
  (* bury the bug in unrelated traffic; the shrinker must dig it out *)
  let noise =
    List.concat_map
      (fun i ->
        [
          Fs_spec.Mkdir (p (Printf.sprintf "/d%d" i));
          Fs_spec.Create (p (Printf.sprintf "/d%d/f" i));
          Fs_spec.Write { file = p (Printf.sprintf "/d%d/f" i); off = 0; data = "x" };
        ])
      [ 0; 1; 2; 3; 4 ]
  in
  let t = noise @ [ Fs_spec.Create (p "/x"); Fs_spec.Rename (p "/x", p "/y") ] @ noise in
  let cov = Krefine.run (module Lost_rename) t in
  match cov.Krefine.divergences with
  | [] -> Alcotest.fail "lost rename escaped the checker"
  | d :: _ ->
      (match d.Krefine.mismatch with
      | Krefine.State_mismatch _ -> ()
      | m -> Alcotest.failf "expected a state mismatch, got %a" Krefine.pp_mismatch m);
      check Alcotest.int "minimal counterexample: create + rename" 2
        (List.length d.Krefine.counterexample);
      (* and the counterexample replays to the same kind of divergence *)
      let replay = Krefine.run (module Lost_rename) d.Krefine.counterexample in
      check Alcotest.bool "counterexample reproduces" false (Krefine.is_clean replay)

(* Committed-but-unfsynced ops + a microreboot whose remount skips
   journal replay. *)
let replay_skip_trace =
  [
    Fs_spec.Create (p "/a");
    Fs_spec.Write { file = p "/a"; off = 0; data = "committed" };
    Fs_spec.Create (p "/b");
    Fs_spec.Write { file = p "/b"; off = 0; data = "unfsynced" };
    Fs_spec.Stat (p "/a");
    Fs_spec.Readdir (p "/");
  ]

let replay_skip_config = { Krefine.default_config with Krefine.crash_every = 0 }

let test_replay_skip_fault_caught () =
  (* The lockstep check must see the state regress.  The same trace on
     the honest machine is clean — replay is exactly what makes the
     microreboot invisible. *)
  let t = replay_skip_trace and config = replay_skip_config in
  let (Kharness.Packed (module Sabotaged)) = Kharness.microreboot_sabotaged ~panic_every:4 () in
  let cov = Krefine.run ~config (module Sabotaged) t in
  if Krefine.is_clean cov then Alcotest.fail "replay-skip fault escaped the lockstep check";
  check Alcotest.bool "divergence at or after the microreboot" true
    (cov.Krefine.deepest_divergence >= 3);
  let honest = Kharness.run ~config Kharness.microreboot t in
  if not (Krefine.is_clean honest) then
    Alcotest.failf "honest microreboot diverged: %a" Krefine.pp_coverage honest

let missing_barrier_trace =
  List.concat_map
    (fun i ->
      [
        Fs_spec.Create (p (Printf.sprintf "/f%d" i));
        Fs_spec.Write
          { file = p (Printf.sprintf "/f%d" i); off = 0; data = Printf.sprintf "payload-%d" i };
      ])
    [ 0; 1; 2; 3; 4; 5 ]
  @ [ Fs_spec.Fsync; Fs_spec.Stat (p "/f0"); Fs_spec.Readdir (p "/") ]

let missing_barrier_config = { Krefine.default_config with Krefine.images_per_op = 32 }

let test_missing_barrier_convicted () =
  (* The seeded missing-barrier mutant: journal commit records flush with
     their data blocks and the checkpoint superblock with its home
     writes.  Under the write-back cache the checkpoint's homes and the
     advanced superblock share one barrier epoch, so a cache-loss residue
     can keep the superblock (replay disabled) while dropping home blocks
     — a torn state no honest barrier discipline can reach.  The crash
     enumerator must convict it, with a shrunk counterexample; the honest
     stack stays clean on the same trace. *)
  let t = missing_barrier_trace and config = missing_barrier_config in
  let mutant () = Kharness.journalfs_machine ~barriers:false Kfs.Journalfs.Journaled in
  let (Kharness.Packed (module Mutant)) = mutant () in
  let cov = Krefine.run ~config (module Mutant) t in
  match cov.Krefine.divergences with
  | [] -> Alcotest.fail "missing-barrier mutant escaped the crash enumerator"
  | d :: _ ->
      (match d.Krefine.mismatch with
      | Krefine.Crash_divergence _ -> ()
      | m -> Alcotest.failf "expected a crash divergence, got %a" Krefine.pp_mismatch m);
      check Alcotest.bool "counterexample shrunk" true
        (List.length d.Krefine.counterexample < List.length t);
      check Alcotest.bool "counterexample small" true
        (List.length d.Krefine.counterexample <= 6);
      (* the shrunk trace reproduces on a fresh mutant *)
      let (Kharness.Packed (module Mutant2)) = mutant () in
      let replay = Krefine.run ~config (module Mutant2) d.Krefine.counterexample in
      check Alcotest.bool "counterexample reproduces" false (Krefine.is_clean replay);
      (* honest barriers over the identical trace and config: clean *)
      let honest = Kharness.run ~config Kharness.journalfs t in
      if not (Krefine.is_clean honest) then
        Alcotest.failf "honest journalfs diverged on the mutant's trace: %a"
          Krefine.pp_coverage honest

(* The Fsync window.  A spec-backed machine whose disk holds the state at
   the last fsync; a crash at an [Fsync] may strike before the fsync
   returned, so its images also include the durable state the fsync
   replaced.  The lying twin's fsync never advances the durable state. *)
module Synced (L : sig
  val lying : bool
end) =
struct
  type vars = {
    mutable st : Fs_spec.state;
    mutable durable : Fs_spec.state;
    mutable before_fsync : Fs_spec.state option;  (* durable state an [Fsync] replaced *)
  }

  let name = if L.lying then "synced.lying" else "synced"
  let recovered st = { st; durable = st; before_fsync = None }
  let init () = recovered Fs_spec.empty

  let step v op =
    let st, r = Fs_spec.step v.st op in
    v.st <- st;
    (match op with
    | Fs_spec.Fsync ->
        v.before_fsync <- Some v.durable;
        if not L.lying then v.durable <- st
    | _ -> v.before_fsync <- None);
    (v, r)

  let interp v = Fs_spec.Pathmap.bindings v.st
  let inv _ = true

  let crash_images v ~limit:_ =
    recovered v.durable :: Option.to_list (Option.map recovered v.before_fsync)
end

let fsync_window_trace = Fs_spec.[ Create (p "/a"); Fsync; Create (p "/b"); Fsync; Stat (p "/a") ]

let test_fsync_window_honest () =
  let module M = Synced (struct
    let lying = false
  end) in
  let cov = Krefine.run (module M) fsync_window_trace in
  if not (Krefine.is_clean cov) then
    Alcotest.failf "pre-fsync images raised false alarms: %a" Krefine.pp_coverage cov;
  check Alcotest.bool "images at the fsyncs checked" true
    (cov.Krefine.crash_images > cov.Krefine.crash_points)

let test_fsync_window_lying () =
  let module M = Synced (struct
    let lying = true
  end) in
  let config = { Krefine.default_config with Krefine.shrink = false } in
  match (Krefine.run ~config (module M) fsync_window_trace).Krefine.divergences with
  | [] -> Alcotest.fail "an fsync that syncs nothing escaped the checker"
  | d :: _ ->
      (match d.Krefine.mismatch with
      | Krefine.Crash_divergence _ -> ()
      | m -> Alcotest.failf "expected a crash divergence, got %a" Krefine.pp_mismatch m);
      check Alcotest.int "convicted at the op after the first fsync" 2 d.Krefine.step_index

(* The checker owns well-formedness.  This machine's own invariant is
   trivially true, and it orphans files two ways: refusing to [Rmdir] a
   non-empty directory, it answers ENOTEMPTY as the spec does but drops
   the directory anyway; and its recovery keeps files but loses every
   directory.  Either orphan is an invariant violation at the step that
   produces it, not a state or crash mismatch. *)
module Orphaning = struct
  type vars = Fs_spec.state

  let name = "orphaning"
  let init () = Fs_spec.empty

  let step st op =
    match (op, Fs_spec.step st op) with
    | Fs_spec.Rmdir dir, (_, (Error Ksim.Errno.ENOTEMPTY as r)) -> (Fs_spec.Pathmap.remove dir st, r)
    | _, stepped -> stepped

  let interp = Fs_spec.Pathmap.bindings
  let inv _ = true
  let crash_images st ~limit:_ = [ Fs_spec.Pathmap.filter (fun _ n -> n <> Fs_spec.Dir) st ]
end

(* The orphan appears at step 2, the refused [Rmdir]. *)
let orphaning_trace = Fs_spec.[ Mkdir (p "/d"); Create (p "/d/f"); Rmdir (p "/d"); Stat (p "/d/f") ]

let check_invariant_violation what ~step_index (d : Krefine.divergence) =
  (match d.Krefine.mismatch with
  | Krefine.Invariant_violation -> ()
  | m -> Alcotest.failf "%s: expected an invariant violation, got %a" what Krefine.pp_mismatch m);
  check Alcotest.int (what ^ ": at the step that orphans") step_index d.Krefine.step_index

let test_orphan_in_lockstep () =
  let config = { Krefine.default_config with Krefine.crash_every = 0; shrink = false } in
  match (Krefine.run ~config (module Orphaning) orphaning_trace).Krefine.divergences with
  | [ d ] -> check_invariant_violation "lockstep" ~step_index:2 d
  | ds -> Alcotest.failf "expected one divergence, got %d" (List.length ds)

let test_orphan_in_crash_image () =
  (* No refused [Rmdir], so lockstep stays clean.  At step 0 the
     recovered image is empty, an allowed state; at step 1 it is the
     orphan [/d/f]. *)
  let t = Fs_spec.[ Mkdir (p "/d"); Create (p "/d/f"); Stat (p "/d/f") ] in
  let config = { Krefine.default_config with Krefine.shrink = false; max_divergences = 1 } in
  match (Krefine.run ~config (module Orphaning) t).Krefine.divergences with
  | [ d ] -> check_invariant_violation "crash image" ~step_index:1 d
  | ds -> Alcotest.failf "expected one divergence, got %d" (List.length ds)

let test_orphan_in_monitor () =
  let module Mon = Krefine.Monitor (Orphaning) in
  let t = Mon.create () in
  match List.iter (fun op -> ignore (Mon.apply t op)) orphaning_trace with
  | () -> Alcotest.fail "the monitor let an orphaned path through"
  | exception Krefine.Refinement_failure d -> check_invariant_violation "monitor" ~step_index:2 d

(* A crash image's replay mount parses the media's blocks in place: over
   crash images built as the journalfs harness builds them (a cold
   write-back cache on a residue-patched device), each mount allocates
   fewer minor words than one copy of a 512-byte block (65 words) per
   device read it made.  A mount that copied every block it read would
   not fit. *)
let test_crash_mount_in_place () =
  let geometry = Kfs.Journalfs.default_geometry in
  let wcache_over dev =
    Kblock.Wcache.create ~name:"wcache" ~capacity:Kharness.wcache_capacity ~seed:1
      (Kblock.Blockdev.io dev)
  in
  let dev =
    Kblock.Blockdev.create ~nblocks:geometry.nblocks ~block_size:geometry.block_size
  in
  let wc = wcache_over dev in
  let fs =
    Kfs.Journalfs.mkfs_on ~geometry ~io:(Kblock.Wcache.io wc) Kfs.Journalfs.Journaled dev
  in
  let disk = Kblock.Wcache.disk dev wc in
  let copy_words = 1 + (geometry.block_size / (Sys.word_size / 8)) in
  let mounts = ref 0 in
  List.iteri
    (fun i op ->
      if op = Fs_spec.Fsync then Kblock.Wcache.settle disk;
      ignore (Kfs.Journalfs.apply fs op);
      if i mod 16 = 0 then
        List.iter
          (fun image ->
            let io = Kblock.Wcache.io (wcache_over image) in
            let before = Gc.minor_words () in
            let mounted = Kfs.Journalfs.mount ~geometry ~io Kfs.Journalfs.Journaled image in
            let words = Gc.minor_words () -. before in
            let reads = Kblock.Blockdev.reads image in
            check Alcotest.bool "image mounts" false (Kfs.Journalfs.is_corrupt mounted);
            if words >= float_of_int (copy_words * reads) then
              Alcotest.failf "a mount of %d reads allocated %.0f minor words" reads words;
            incr mounts)
          (Kblock.Wcache.crash_devices disk ~limit:2))
    (trace ~target_ops:800 ~seed:11);
  check Alcotest.bool "mounted crash images" true (!mounts > 50)

(* Listings: the zip and its fallback ------------------------------------- *)

(* A twin whose listing is reversed and then repeats its first binding,
   node and all: the same state, but every non-empty listing is out of
   order, so the checker must build it to compare. *)
module Scrambled (M : Krefine.MACHINE) = struct
  include M

  let interp v = match M.interp v with [] -> [] | first :: _ as b -> List.rev_append b [ first ]
end

let same_mismatch (a : Krefine.mismatch) (b : Krefine.mismatch) =
  match (a, b) with
  | Result_mismatch x, Result_mismatch y -> x.expected = y.expected && x.got = y.got
  | State_mismatch x, State_mismatch y ->
      Fs_spec.equal x.expected y.expected && Fs_spec.equal x.got y.got
  | Invariant_violation, Invariant_violation -> true
  | Crash_divergence x, Crash_divergence y ->
      x.image_index = y.image_index
      && Fs_spec.equal x.recovered y.recovered
      && List.equal Fs_spec.equal x.frontier y.frontier
  | (Result_mismatch _ | State_mismatch _ | Invariant_violation | Crash_divergence _), _ -> false

(* The machine and its scrambled twin give the same coverage record,
   field by field (states compared as maps), and the same fingerprint. *)
let check_twin what ~config (Kharness.Packed (module M)) trace =
  let module T = Scrambled (M) in
  let plain = Krefine.run ~config (module M) trace in
  let twin = Krefine.run ~config (module T) trace in
  check Alcotest.string (what ^ ": fingerprint") (Krefine.coverage_fingerprint plain)
    (Krefine.coverage_fingerprint twin);
  check Alcotest.bool (what ^ ": coverage record") true
    ({ plain with divergences = [] } = { twin with divergences = [] }
    && List.equal
         (fun (x : Krefine.divergence) (y : Krefine.divergence) ->
           x.step_index = y.step_index && x.op = y.op && x.counterexample = y.counterexample
           && same_mismatch x.mismatch y.mismatch)
         plain.divergences twin.divergences);
  plain

let test_fallback_same_verdicts () =
  let t = trace ~target_ops:150 ~seed:11 in
  let config =
    { Krefine.default_config with Krefine.seed = 11; images_per_op = 4; crash_every = 3 }
  in
  List.iter
    (fun (e : Kharness.entry) ->
      let cov = check_twin e.Kharness.hname ~config e.Kharness.machine t in
      check Alcotest.bool (e.Kharness.hname ^ " clean") true (Krefine.is_clean cov))
    (Kharness.all ());
  let replay_skip =
    check_twin "replay-skip" ~config:replay_skip_config
      (Kharness.microreboot_sabotaged ~panic_every:4 ())
      replay_skip_trace
  in
  check Alcotest.bool "replay-skip convicted" false (Krefine.is_clean replay_skip);
  let missing_barrier =
    check_twin "missing-barrier" ~config:missing_barrier_config
      (Kharness.journalfs_machine ~barriers:false Kfs.Journalfs.Journaled)
      missing_barrier_trace
  in
  check Alcotest.bool "missing-barrier convicted" false (Krefine.is_clean missing_barrier)

let rec increasing = function
  | (p, _) :: ((q, _) :: _ as rest) -> List.compare String.compare p q < 0 && increasing rest
  | [ _ ] | [] -> true

(* The producers list in path order, so the checker zips: a listing that
   silently fell out of order would still give every verdict, only
   slower, and fails here instead. *)
let test_listings_in_path_order () =
  let t = trace ~target_ops:800 ~seed:11 in
  let in_order b what i =
    if not (increasing b) then Alcotest.failf "%s, step %d: listing out of path order" what i
  in
  List.iter
    (fun (e : Kharness.entry) ->
      let (Kharness.Packed (module M)) = e.Kharness.machine in
      let image_of = e.Kharness.hname ^ " crash image" in
      let v = ref (M.init ()) in
      List.iteri
        (fun i op ->
          v := fst (M.step !v op);
          in_order (M.interp !v) e.Kharness.hname i;
          if i mod 8 = 0 then
            List.iter (fun image -> in_order (M.interp image) image_of i) (M.crash_images !v ~limit:2))
        t)
    (Kharness.all ());
  (* memfs_typed over the recorded trace and over nested directories *)
  List.iter
    (fun (what, ops) ->
      let fs = Kfs.Memfs_typed.mkfs () in
      List.iteri
        (fun i op ->
          ignore (Kfs.Memfs_typed.apply fs op);
          in_order (Kfs.Memfs_typed.interpret fs) what i)
        ops)
    [
      ("memfs_typed, recorded", t);
      ("memfs_typed, mixed", Kfs.Workload.generate ~seed:7 Kfs.Workload.Mixed ~ops:400);
    ]

let test_registry () =
  let names = List.map (fun e -> e.Kharness.hname) (Kharness.all ()) in
  List.iter
    (fun n -> check Alcotest.bool (n ^ " registered") true (List.mem n names))
    [ "journalfs"; "cowfs"; "journalfs.microreboot" ];
  check Alcotest.bool "find journalfs" true (Kharness.find "journalfs" <> None);
  check Alcotest.bool "find unknown" true (Kharness.find "nope" = None);
  let subs = Kharness.subsystems_covered () in
  List.iter
    (fun s -> check Alcotest.bool (s ^ " covered") true (List.mem s subs))
    [ "journalfs"; "cowfs" ]

let () =
  Alcotest.run "krefine"
    [
      ( "harnesses",
        [
          Alcotest.test_case "trace recording" `Quick test_trace_recording;
          Alcotest.test_case "journalfs refines Fs_spec" `Quick test_journalfs_refines;
          Alcotest.test_case "cowfs refines Fs_spec" `Quick test_cowfs_refines;
          Alcotest.test_case "microreboot refines Fs_spec" `Quick test_microreboot_refines;
          Alcotest.test_case "verdict deterministic" `Quick test_verdict_deterministic;
          Alcotest.test_case "pinned fingerprints" `Quick test_pinned_fingerprints;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "crash-image mount reads in place" `Quick
            test_crash_mount_in_place;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "lost rename: minimal counterexample" `Quick
            test_lost_rename_minimal_counterexample;
          Alcotest.test_case "replay-skip fault caught" `Quick test_replay_skip_fault_caught;
          Alcotest.test_case "missing-barrier mutant convicted" `Quick
            test_missing_barrier_convicted;
          Alcotest.test_case "fsync window: pre-fsync images allowed" `Quick
            test_fsync_window_honest;
          Alcotest.test_case "fsync window: lying fsync convicted" `Quick
            test_fsync_window_lying;
          Alcotest.test_case "orphan: invariant violation in lockstep" `Quick
            test_orphan_in_lockstep;
          Alcotest.test_case "orphan: invariant violation on a crash image" `Quick
            test_orphan_in_crash_image;
          Alcotest.test_case "orphan: invariant violation from the monitor" `Quick
            test_orphan_in_monitor;
        ] );
      ( "listings",
        [
          Alcotest.test_case "out-of-order twin: same coverage and fingerprint" `Quick
            test_fallback_same_verdicts;
          Alcotest.test_case "producers list in path order" `Quick test_listings_in_path_order;
        ] );
    ]
