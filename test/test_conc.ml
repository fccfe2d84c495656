(* Tests for the concurrent side of verification (§4.4), now powered by
   the krefine enumerator: seeded merges of per-thread op streams are
   checked step-by-step against the abstract spec, so pure computations
   over immutable snapshots are schedule-insensitive and hidden shared
   mutation shows up as a divergence on some interleaving. *)

open Kspec

let check = Alcotest.check
let p = Fs_spec.path_of_string

let populated_state () =
  let ops =
    [
      Fs_spec.Mkdir (p "/a");
      Fs_spec.Mkdir (p "/a/b");
      Fs_spec.Create (p "/a/b/deep");
      Fs_spec.Write { file = p "/a/b/deep"; off = 0; data = "0123456789" };
      Fs_spec.Create (p "/top");
      Fs_spec.Write { file = p "/top"; off = 0; data = "xyz" };
    ]
  in
  List.fold_left (fun st op -> fst (Fs_spec.step st op)) Fs_spec.empty ops

module Memfs_machine = struct
  type vars = Kfs.Memfs_typed.fs

  let name = "memfs_typed"
  let init () = Kfs.Memfs_typed.mkfs ()
  let step v op = (v, Kfs.Memfs_typed.apply v op)
  let interp = Kfs.Memfs_typed.interpret
  let inv _ = true
  let crash_images _ ~limit:_ = []
end

let stream d =
  [
    Fs_spec.Mkdir (p ("/" ^ d));
    Fs_spec.Create (p ("/" ^ d ^ "/f"));
    Fs_spec.Write { file = p ("/" ^ d ^ "/f"); off = 0; data = d };
    Fs_spec.Readdir (p ("/" ^ d));
  ]

let test_queries () =
  let state = populated_state () in
  check Alcotest.int "files" 2 (Krefine.count_files state);
  check Alcotest.int "dirs" 2 (Krefine.count_dirs state);
  check Alcotest.int "bytes" 13 (Krefine.total_bytes state);
  check Alcotest.int "depth" 3 (Krefine.max_depth state)

let test_disjoint_streams_refine_under_every_schedule () =
  let cov =
    Krefine.explore ~interleavings:48 (module Memfs_machine)
      [ stream "a"; stream "b"; stream "c" ]
  in
  check Alcotest.bool "clean" true (Krefine.is_clean cov);
  check Alcotest.int "48 interleavings" 48 cov.Krefine.interleavings;
  check Alcotest.int "every merge has all 12 ops" (48 * 12) cov.Krefine.ops

let test_merge_is_seeded_and_fair () =
  let streams = [ stream "a"; stream "b" ] in
  let m1 = Krefine.merge ~seed:7 streams in
  let m2 = Krefine.merge ~seed:7 streams in
  check Alcotest.bool "same seed, same merge" true (m1 = m2);
  check Alcotest.int "merge preserves every op" 8 (List.length m1);
  let different =
    List.exists (fun s -> Krefine.merge ~seed:s streams <> m1) [ 8; 9; 10; 11; 12 ]
  in
  check Alcotest.bool "some other seed merges differently" true different;
  (* program order within a stream survives the merge *)
  let positions ops needle =
    List.filteri (fun _ op -> op = needle) ops |> List.length
  in
  List.iter
    (fun op -> check Alcotest.int "op present exactly once" 1 (positions m1 op))
    (stream "a")

let test_hidden_mutation_detected () =
  (* A machine with a hidden shared side channel: results depend on how
     many total steps ran, so some interleaving of ops against a
     differently-shaped spec history diverges — exactly what the
     enumerator exists to catch. *)
  let counter = ref 0 in
  let module Sneaky = struct
    include Memfs_machine

    let name = "memfs+side-channel"

    let step v op =
      incr counter;
      if !counter mod 5 = 0 then
        (* every 5th global step drops the op on the floor *)
        (v, Ok Fs_spec.Unit)
      else (v, Kfs.Memfs_typed.apply v op)
  end in
  let cov =
    Krefine.explore ~interleavings:8
      ~config:{ Krefine.default_config with Krefine.shrink = false }
      (module Sneaky)
      [ stream "a"; stream "b" ]
  in
  check Alcotest.bool "schedule-sensitivity detected" false (Krefine.is_clean cov)

let test_interpret_snapshot_is_immutable () =
  (* The snapshot taken from a live FS stays fixed while the FS mutates:
     outsourced readers and the writer cannot race by construction. *)
  let fs = Kfs.Memfs_typed.mkfs () in
  ignore (Kfs.Memfs_typed.apply fs (Fs_spec.Create (p "/f")));
  let snapshot = Fs_spec.of_bindings (Kfs.Memfs_typed.interpret fs) in
  ignore (Kfs.Memfs_typed.apply fs (Fs_spec.Write { file = p "/f"; off = 0; data = "mutated" }));
  ignore (Kfs.Memfs_typed.apply fs (Fs_spec.Create (p "/g")));
  check Alcotest.int "sees one file" 1 (Krefine.count_files snapshot);
  check Alcotest.int "sees zero bytes" 0 (Krefine.total_bytes snapshot);
  check Alcotest.int "live fs moved on" 2
    (Krefine.count_files (Fs_spec.of_bindings (Kfs.Memfs_typed.interpret fs)))

let test_explore_lost_update_vs_locked () =
  (* Kthread.explore distinguishes the racy counter from the locked one. *)
  let counter = ref 0 in
  let racy_outcomes =
    Ksim.Kthread.explore ~seeds:24
      ~spawn_all:(fun sched ->
        counter := 0;
        for _ = 1 to 3 do
          ignore
            (Ksim.Kthread.spawn sched ~name:"inc" (fun () ->
                 let v = !counter in
                 Ksim.Kthread.yield ();
                 counter := v + 1))
        done)
      ~observe:(fun _ -> !counter)
      ()
  in
  check Alcotest.bool "explored" true (racy_outcomes <> []);
  (* Directly: the locked counter always reaches 3 across seeds. *)
  let locked_final seed =
    let sched = Ksim.Kthread.create ~seed () in
    let lock = Ksim.Klock.create ~name:"c" () in
    let counter = ref 0 in
    for _ = 1 to 3 do
      ignore
        (Ksim.Kthread.spawn sched ~name:"inc" (fun () ->
             Ksim.Klock.with_lock lock (fun () ->
                 let v = !counter in
                 Ksim.Kthread.yield ();
                 counter := v + 1)))
    done;
    Ksim.Kthread.run sched;
    !counter
  in
  List.iter
    (fun seed -> check Alcotest.int "locked counter exact" 3 (locked_final seed))
    [ 1; 5; 9; 13; 17 ];
  (* And the racy counter loses updates for at least one seed. *)
  let racy_final seed =
    let sched = Ksim.Kthread.create ~seed () in
    let counter = ref 0 in
    for _ = 1 to 3 do
      ignore
        (Ksim.Kthread.spawn sched ~name:"inc" (fun () ->
             let v = !counter in
             Ksim.Kthread.yield ();
             counter := v + 1))
    done;
    Ksim.Kthread.run sched;
    !counter
  in
  let finals = List.map racy_final [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  check Alcotest.bool "some update lost somewhere" true (List.exists (fun v -> v < 3) finals)

let test_concurrent_shared_lend_readers () =
  (* Ownership model 3 under real interleaving: many reader threads over
     one shared-lent region, across seeds — never a violation. *)
  List.iter
    (fun seed ->
      let ck = Ownership.Checker.create ~strict:true () in
      let cap = Ownership.Checker.alloc ck ~holder:"owner" ~size:64 in
      Ownership.Checker.fill ck cap 'd';
      let sched = Ksim.Kthread.create ~seed () in
      Ownership.Checker.lend_shared ck cap ~to_:[ "r1"; "r2"; "r3" ] ~f:(fun readers ->
          List.iter
            (fun r ->
              ignore
                (Ksim.Kthread.spawn sched ~name:r.Ownership.Cap.holder (fun () ->
                     for _ = 1 to 4 do
                       ignore (Ownership.Checker.read ck r ~off:0 ~len:8);
                       Ksim.Kthread.yield ()
                     done)))
            readers;
          Ksim.Kthread.run sched);
      Ownership.Checker.free ck cap;
      check Alcotest.int
        (Printf.sprintf "seed %d clean" seed)
        0
        (Ownership.Checker.violation_count ck))
    [ 1; 2; 3; 4; 5; 6 ]

let test_concurrent_writer_during_lend_caught () =
  (* The anti-property: a writer thread mutating during a shared lend is
     caught in every interleaving, not just some. *)
  List.iter
    (fun seed ->
      let ck = Ownership.Checker.create ~strict:false () in
      let cap = Ownership.Checker.alloc ck ~holder:"owner" ~size:64 in
      let sched = Ksim.Kthread.create ~seed () in
      Ownership.Checker.lend_shared ck cap ~to_:[ "reader" ] ~f:(fun readers ->
          (match readers with
          | [ r ] ->
              ignore
                (Ksim.Kthread.spawn sched ~name:"reader" (fun () ->
                     ignore (Ownership.Checker.read ck r ~off:0 ~len:4)))
          | _ -> assert false);
          ignore
            (Ksim.Kthread.spawn sched ~name:"rogue-writer" (fun () ->
                 Ksim.Kthread.yield ();
                 Ownership.Checker.write ck cap ~off:0 (Bytes.of_string "rogue")));
          Ksim.Kthread.run sched);
      check Alcotest.bool
        (Printf.sprintf "seed %d violation caught" seed)
        true
        (List.exists
           (fun (v : Ownership.Checker.violation) ->
             v.Ownership.Checker.kind = Ownership.Checker.Write_while_shared)
           (Ownership.Checker.violations ck)))
    [ 1; 2; 3; 4 ]

let test_lock_order_stable_across_interleavings () =
  (* Two writers taking s_lock -> i_lock in the program's one order:
     whatever the schedule, lockdep sees exactly that class edge and no
     inversion — the invariant kracer's static graph is reconciled
     against.  A third thread with the inverted order is then reported
     under every seed, not just the unlucky one. *)
  List.iter
    (fun seed ->
      let dep = Ksim.Lockdep.create () in
      let s_lock = Ksim.Klock.create ~lockdep:dep ~name:"s_lock" () in
      let i_lock = Ksim.Klock.create ~lockdep:dep ~name:"i_lock:1" () in
      let sched = Ksim.Kthread.create ~seed () in
      for _ = 1 to 2 do
        ignore
          (Ksim.Kthread.spawn sched ~name:"writer" (fun () ->
               Ksim.Klock.with_lock s_lock (fun () ->
                   Ksim.Kthread.yield ();
                   Ksim.Klock.with_lock i_lock (fun () -> Ksim.Kthread.yield ()))))
      done;
      Ksim.Kthread.run sched;
      check Alcotest.int (Printf.sprintf "seed %d: no inversion" seed) 0
        (Ksim.Lockdep.warning_count dep);
      check
        Alcotest.(list (pair string string))
        (Printf.sprintf "seed %d: the one edge" seed)
        [ ("s_lock", "i_lock:1") ]
        (Ksim.Lockdep.edges dep);
      let sched' = Ksim.Kthread.create ~seed () in
      ignore
        (Ksim.Kthread.spawn sched' ~name:"inverted" (fun () ->
             Ksim.Klock.with_lock i_lock (fun () ->
                 Ksim.Klock.with_lock s_lock (fun () -> ()))));
      Ksim.Kthread.run sched';
      check Alcotest.bool
        (Printf.sprintf "seed %d: inversion reported" seed)
        true
        (Ksim.Lockdep.warning_count dep >= 1))
    [ 1; 2; 3; 4; 5 ]

let prop_enumerator_matches_sequential =
  (* Whatever the seed, a clean machine's enumerator verdict agrees with
     folding the spec sequentially: clean, and the queries agree. *)
  QCheck2.Test.make ~name:"enumerator verdict = sequential fold" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let trace = Kfs.Workload.generate ~seed Kfs.Workload.Mixed ~ops:40 in
      let state =
        List.fold_left (fun st op -> fst (Fs_spec.step st op)) Fs_spec.empty trace
      in
      let cov = Krefine.run (module Memfs_machine) trace in
      Krefine.is_clean cov
      && cov.Krefine.ops = List.length trace
      && Krefine.count_files state >= 0
      && Krefine.count_dirs state >= 0)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "conc"
    [
      ( "enumerator",
        Alcotest.test_case "pure queries" `Quick test_queries
        :: Alcotest.test_case "disjoint streams refine under every schedule" `Quick
             test_disjoint_streams_refine_under_every_schedule
        :: Alcotest.test_case "merge seeded and fair" `Quick test_merge_is_seeded_and_fair
        :: Alcotest.test_case "hidden mutation detected" `Quick test_hidden_mutation_detected
        :: Alcotest.test_case "snapshot immutability" `Quick test_interpret_snapshot_is_immutable
        :: qcheck [ prop_enumerator_matches_sequential ] );
      ( "interleaving",
        [
          Alcotest.test_case "lost update vs locked" `Quick test_explore_lost_update_vs_locked;
          Alcotest.test_case "shared-lend readers clean" `Quick
            test_concurrent_shared_lend_readers;
          Alcotest.test_case "rogue writer caught" `Quick
            test_concurrent_writer_during_lend_caught;
          Alcotest.test_case "lock order stable across interleavings" `Quick
            test_lock_order_stable_across_interleavings;
        ] );
    ]
