(* Tests for the kernel-simulation substrate: error codes, dynamic values,
   the manual allocator, locks, the scheduler, tracing, and the RNG. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* Errno ------------------------------------------------------------------ *)

let test_errno_roundtrip () =
  List.iter
    (fun e ->
      match Ksim.Errno.of_code (Ksim.Errno.to_code e) with
      | Some e' -> check Alcotest.string "roundtrip" (Ksim.Errno.to_string e) (Ksim.Errno.to_string e')
      | None -> fail "of_code failed")
    Ksim.Errno.all

let test_errno_codes () =
  check Alcotest.int "ENOENT" 2 (Ksim.Errno.to_code Ksim.Errno.ENOENT);
  check Alcotest.int "EIO" 5 (Ksim.Errno.to_code Ksim.Errno.EIO);
  check Alcotest.int "EEXIST" 17 (Ksim.Errno.to_code Ksim.Errno.EEXIST);
  check Alcotest.int "EXDEV" 18 (Ksim.Errno.to_code Ksim.Errno.EXDEV);
  check Alcotest.int "EINVAL" 22 (Ksim.Errno.to_code Ksim.Errno.EINVAL)

let test_errno_unknown_code () =
  check Alcotest.bool "code 9999" true (Ksim.Errno.of_code 9999 = None)

let test_errno_bind () =
  let open Ksim.Errno in
  let r =
    let* x = ok 1 in
    let* y = ok 2 in
    ok (x + y)
  in
  check Alcotest.(result int string) "bind ok" (Ok 3)
    (Result.map_error to_string r);
  let r2 : int r =
    let* _ = error ENOENT in
    ok 1
  in
  check Alcotest.(result int string) "bind error" (Error "ENOENT")
    (Result.map_error to_string r2)

(* Dyn --------------------------------------------------------------------- *)

let int_key : int Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"test.int"
let str_key : string Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"test.string"

let test_dyn_roundtrip () =
  let d = Ksim.Dyn.inject int_key 42 in
  check Alcotest.(option int) "project" (Some 42) (Ksim.Dyn.project int_key d);
  check Alcotest.int "cast_exn" 42 (Ksim.Dyn.cast_exn int_key d)

let test_dyn_mismatch () =
  let d = Ksim.Dyn.inject int_key 42 in
  check Alcotest.(option string) "wrong key" None (Ksim.Dyn.project str_key d);
  match Ksim.Dyn.cast_exn str_key d with
  | _ -> fail "expected Type_confusion"
  | exception Ksim.Dyn.Type_confusion { expected; actual } ->
      check Alcotest.string "expected tag" "test.string" expected;
      check Alcotest.string "actual tag" "test.int" actual

let test_dyn_same_name_different_keys () =
  (* Two keys created with the same name must not unify: name is a label,
     identity is the witness. *)
  let k1 : int Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"dup" in
  let k2 : int Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"dup" in
  let d = Ksim.Dyn.inject k1 7 in
  check Alcotest.(option int) "other key misses" None (Ksim.Dyn.project k2 d)

let test_dyn_null () =
  check Alcotest.bool "is_null" true (Ksim.Dyn.is_null Ksim.Dyn.null);
  check Alcotest.(option int) "project null" None (Ksim.Dyn.project int_key Ksim.Dyn.null);
  match Ksim.Dyn.cast_exn int_key Ksim.Dyn.null with
  | _ -> fail "expected Null_dereference"
  | exception Ksim.Dyn.Null_dereference -> ()

let test_errptr () =
  let open Ksim.Dyn.Errptr in
  let p = of_ptr (Ksim.Dyn.inject int_key 1) in
  let e = of_err Ksim.Errno.ENOENT in
  check Alcotest.bool "ptr not err" false (is_err p);
  check Alcotest.bool "err is err" true (is_err e);
  check Alcotest.int "ptr_err of err" 2 (ptr_err e);
  check Alcotest.int "ptr_err of ptr" 0 (ptr_err p);
  check Alcotest.int "deref ptr" 1 (Ksim.Dyn.cast_exn int_key (deref p));
  (match deref e with
  | _ -> fail "deref of ERR_PTR must oops"
  | exception Ksim.Dyn.Null_dereference -> ());
  check Alcotest.bool "to_result err" true (to_result e = Error Ksim.Errno.ENOENT)

(* Kmem -------------------------------------------------------------------- *)

let test_kmem_alloc_read_write () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"here" "hello" in
  check Alcotest.string "read" "hello" (Ksim.Kmem.read p);
  Ksim.Kmem.write p "world";
  check Alcotest.string "after write" "world" (Ksim.Kmem.read p);
  check Alcotest.int "live" 1 (Ksim.Kmem.live_count heap);
  Ksim.Kmem.free p;
  check Alcotest.int "live after free" 0 (Ksim.Kmem.live_count heap);
  check Alcotest.int "allocated" 1 (Ksim.Kmem.allocated heap);
  check Alcotest.int "freed" 1 (Ksim.Kmem.freed heap)

let test_kmem_use_after_free () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"site1" 5 in
  Ksim.Kmem.free p;
  (match Ksim.Kmem.read p with
  | _ -> fail "expected Use_after_free"
  | exception Ksim.Kmem.Use_after_free { site; _ } ->
      check Alcotest.string "site" "site1" site);
  check Alcotest.int "uaf counted" 1 (Ksim.Kmem.uaf_events heap)

let test_kmem_double_free () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"s" () in
  Ksim.Kmem.free p;
  (match Ksim.Kmem.free p with
  | _ -> fail "expected Double_free"
  | exception Ksim.Kmem.Double_free _ -> ());
  check Alcotest.int "df counted" 1 (Ksim.Kmem.double_free_events heap)

let test_kmem_nonstrict_write_after_free () =
  let heap = Ksim.Kmem.create ~strict:false ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"s" 1 in
  Ksim.Kmem.free p;
  Ksim.Kmem.write p 2 (* silently counted, like real C *);
  check Alcotest.int "uaf counted" 1 (Ksim.Kmem.uaf_events heap)

let test_kmem_leaks () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let _p1 = Ksim.Kmem.alloc heap ~site:"a" 1 in
  let p2 = Ksim.Kmem.alloc heap ~site:"b" 2 in
  Ksim.Kmem.free p2;
  match Ksim.Kmem.leaks heap with
  | [ { Ksim.Kmem.leak_site; _ } ] -> check Alcotest.string "leak site" "a" leak_site
  | l -> fail (Printf.sprintf "expected 1 leak, got %d" (List.length l))

let test_kmem_is_live () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"s" 0 in
  check Alcotest.bool "live" true (Ksim.Kmem.is_live p);
  Ksim.Kmem.free p;
  check Alcotest.bool "dead" false (Ksim.Kmem.is_live p)

(* Run [f] with the runtime export on (records kept) or off, whatever
   the environment says, then restore it.  Switching it on keeps the
   file the environment named, if any. *)
let with_export on f =
  let saved = Ksim.Export.target () in
  Ksim.Export.set_target (if on then Some (Option.value saved ~default:Filename.null) else None);
  Fun.protect ~finally:(fun () -> Ksim.Export.set_target saved) f

let export_records kind =
  List.filter_map (fun (k, fields) -> if k = kind then Some fields else None) (Ksim.Export.records ())

(* The export keeps event tables, never heaps: a heap that recorded an
   event stays collectable once dropped, and so does its live table.  The
   export reads each leak report as it stands, so the second, empty one
   leaves no rows behind. *)
let test_kmem_export_pins_nothing () =
  let n = 100 in
  let heaps = Weak.create n in
  let scratch_rows () =
    List.filter (fun fields -> List.nth fields 1 = "scratch") (export_records "kmem")
  in
  let provoke i =
    let heap = Ksim.Kmem.create ~name:"scratch" () in
    let p = Ksim.Kmem.alloc heap ~site:"s" (Bytes.create 64) in
    check Alcotest.int "leak reported" 1 (List.length (Ksim.Kmem.leaks heap));
    check Alcotest.(list (list string)) "the export holds the leak"
      [ [ "leak"; "scratch"; "s"; "1" ] ] (scratch_rows ());
    Ksim.Kmem.free p;
    check Alcotest.int "leak gone" 0 (List.length (Ksim.Kmem.leaks heap));
    check Alcotest.(list (list string)) "and lets it go" [] (scratch_rows ());
    Weak.set heaps i (Some heap)
  in
  with_export true (fun () ->
      for i = 0 to n - 1 do
        provoke i
      done);
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check heaps i then incr live
  done;
  check Alcotest.int "no dropped heap stays reachable" 0 !live

(* Klock ------------------------------------------------------------------- *)

let test_lock_basic () =
  let l = Ksim.Klock.create ~name:"l" () in
  check Alcotest.bool "free" false (Ksim.Klock.held l);
  Ksim.Klock.acquire l;
  check Alcotest.bool "held" true (Ksim.Klock.held l);
  check Alcotest.bool "by self" true (Ksim.Klock.held_by_self l);
  Ksim.Klock.release l;
  check Alcotest.bool "released" false (Ksim.Klock.held l)

let test_lock_self_deadlock () =
  let l = Ksim.Klock.create ~name:"l" () in
  Ksim.Klock.acquire l;
  (match Ksim.Klock.acquire l with
  | _ -> fail "expected Self_deadlock"
  | exception Ksim.Klock.Self_deadlock _ -> ());
  Ksim.Klock.release l

let test_lock_release_by_nonholder () =
  let l = Ksim.Klock.create ~name:"l" () in
  match Ksim.Klock.release l with
  | _ -> fail "expected Not_holder"
  | exception Ksim.Klock.Not_holder _ -> ()

let test_with_lock_releases_on_exception () =
  let l = Ksim.Klock.create ~name:"l" () in
  (match Ksim.Klock.with_lock l (fun () -> failwith "boom") with
  | _ -> fail "expected failure"
  | exception Failure _ -> ());
  check Alcotest.bool "released after exn" false (Ksim.Klock.held l)

let test_guarded_race_detection () =
  let l = Ksim.Klock.create ~name:"l" () in
  let cell = Ksim.Klock.Guarded.create ~lock:l ~name:"c" 0 in
  (* Unlocked access: counted. *)
  Ksim.Klock.Guarded.set cell 1;
  check Alcotest.int "race recorded" 1 (Ksim.Klock.Guarded.races cell);
  (* Locked access: clean. *)
  Ksim.Klock.with_lock l (fun () -> Ksim.Klock.Guarded.set cell 2);
  check Alcotest.int "no extra race" 1 (Ksim.Klock.Guarded.races cell);
  (* unsafe_ accessors never count. *)
  check Alcotest.int "unsafe read" 2 (Ksim.Klock.Guarded.unsafe_get cell);
  check Alcotest.int "still 1 race" 1 (Ksim.Klock.Guarded.races cell)

let test_guarded_strict_raises () =
  let l = Ksim.Klock.create ~name:"l" () in
  let cell = Ksim.Klock.Guarded.create ~strict:true ~lock:l ~name:"c" 0 in
  match Ksim.Klock.Guarded.get cell with
  | _ -> fail "expected Data_race"
  | exception Ksim.Klock.Data_race { cell = name; _ } ->
      check Alcotest.string "cell name" "c" name

(* Lockdep ------------------------------------------------------------------- *)

let test_lockdep_consistent_order_clean () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  for _ = 1 to 3 do
    Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()))
  done;
  check Alcotest.int "no warnings" 0 (Ksim.Lockdep.warning_count dep);
  check Alcotest.bool "edge recorded" true (Ksim.Lockdep.edge_count dep >= 1)

let test_lockdep_inversion_detected () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  (* A -> B once... *)
  Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()));
  (* ...then B -> A: no deadlock happens (single thread), but the order
     inversion is reported immediately — lockdep's whole point. *)
  Ksim.Klock.with_lock b (fun () -> Ksim.Klock.with_lock a (fun () -> ()));
  check Alcotest.int "one warning" 1 (Ksim.Lockdep.warning_count dep);
  match Ksim.Lockdep.warnings dep with
  | [ w ] ->
      check Alcotest.string "acquiring A" "A" w.Ksim.Lockdep.acquiring;
      check Alcotest.bool "cycle mentions B" true (List.mem "B" w.Ksim.Lockdep.cycle)
  | _ -> fail "expected exactly one warning"

let test_lockdep_transitive_cycle () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  let c = Ksim.Klock.create ~lockdep:dep ~name:"C" () in
  Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()));
  Ksim.Klock.with_lock b (fun () -> Ksim.Klock.with_lock c (fun () -> ()));
  (* C -> A closes A -> B -> C -> A. *)
  Ksim.Klock.with_lock c (fun () -> Ksim.Klock.with_lock a (fun () -> ()));
  check Alcotest.bool "cycle found" true (Ksim.Lockdep.warning_count dep >= 1)

let test_lockdep_across_threads () =
  (* The classic AB/BA deadlock pattern, staged so it does NOT deadlock in
     this interleaving — lockdep still reports it. *)
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  let sched = Ksim.Kthread.create () in
  ignore
    (Ksim.Kthread.spawn sched ~name:"t1" (fun () ->
         Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()))));
  ignore
    (Ksim.Kthread.spawn sched ~name:"t2" (fun () ->
         Ksim.Klock.with_lock b (fun () -> Ksim.Klock.with_lock a (fun () -> ()))));
  Ksim.Kthread.run sched;
  check Alcotest.bool "reported" true (Ksim.Lockdep.warning_count dep >= 1)

let test_lockdep_reentrant_stack () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  (* Release out of acquisition order must still unwind the held stack. *)
  Ksim.Klock.acquire a;
  Ksim.Klock.acquire b;
  Ksim.Klock.release a;
  Ksim.Klock.release b;
  Ksim.Klock.with_lock b (fun () -> ());
  check Alcotest.int "no spurious warnings" 0 (Ksim.Lockdep.warning_count dep)

let test_lockdep_edges_export () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  let c = Ksim.Klock.create ~lockdep:dep ~name:"C" () in
  Ksim.Klock.with_lock a (fun () ->
      Ksim.Klock.with_lock b (fun () -> Ksim.Klock.with_lock c (fun () -> ())));
  (* nesting under A and B simultaneously records the transitive pairs too *)
  check
    Alcotest.(list (pair string string))
    "deterministic edge list"
    [ ("A", "B"); ("A", "C"); ("B", "C") ]
    (Ksim.Lockdep.edges dep);
  let dot = Ksim.Lockdep.dump_dot dep in
  check Alcotest.bool "dot names the graph" true
    (String.length dot > 0 && String.sub dot 0 16 = "digraph lockdep ");
  (* the global graph is the export's "lockdep" kind: held, acquired *)
  check
    Alcotest.(list (list string))
    "one record per global edge"
    (List.map (fun (a, b) -> [ a; b ]) (Ksim.Lockdep.edges Ksim.Lockdep.global))
    (export_records "lockdep");
  (* the wire format the kracer reconciliation reads back *)
  let path = Filename.temp_file "export" ".txt" in
  Sys.remove path;
  let records = List.map (fun (a, b) -> ("lockdep", [ a; b ])) (Ksim.Lockdep.edges dep) in
  Ksim.Export.write path records;
  Ksim.Export.write path records;
  let ic = open_in path in
  let rec slurp acc =
    match input_line ic with line -> slurp (line :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = slurp [] in
  close_in ic;
  Sys.remove path;
  check Alcotest.int "append mode accumulates" 6 (List.length lines);
  check Alcotest.string "kind, held, acquired, tab separated" "lockdep\tA\tB" (List.hd lines)

(* A process that cannot write its export must not exit as if it had:
   the writer's error reaches the exit hook and fails the process. *)
let test_export_unwritable_raises () =
  match Ksim.Export.write "/nonexistent/export.txt" [ ("lockdep", [ "A"; "B" ]) ] with
  | () -> fail "a write to an unwritable export was swallowed"
  | exception Sys_error _ -> ()

let test_lockdep_release_out_of_order () =
  (* A held, B acquired, A released first: acquiring C now must record
     only B -> C — A is gone from the held stack despite being released
     out of LIFO order. *)
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  let c = Ksim.Klock.create ~lockdep:dep ~name:"C" () in
  Ksim.Klock.acquire a;
  Ksim.Klock.acquire b;
  Ksim.Klock.release a;
  Ksim.Klock.acquire c;
  Ksim.Klock.release c;
  Ksim.Klock.release b;
  check
    Alcotest.(list (pair string string))
    "no stale A -> C edge"
    [ ("A", "B"); ("B", "C") ]
    (Ksim.Lockdep.edges dep)

let test_lockdep_reacquire_after_release () =
  (* A -> B, full release, then B alone, then A alone: the second and
     third critical sections hold one lock each, so no inversion exists
     and no B -> A edge may appear. *)
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()));
  Ksim.Klock.with_lock b (fun () -> ());
  Ksim.Klock.with_lock a (fun () -> ());
  check Alcotest.int "no warnings" 0 (Ksim.Lockdep.warning_count dep);
  check
    Alcotest.(list (pair string string))
    "only the nested edge" [ ("A", "B") ] (Ksim.Lockdep.edges dep)

let test_lockdep_trylock_orders () =
  (* A successful try_acquire participates in the order graph exactly
     like a blocking acquire: B -> A via trylock then A -> B blocking is
     an inversion. *)
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  Ksim.Klock.with_lock b (fun () ->
      check Alcotest.bool "trylock succeeds uncontended" true (Ksim.Klock.try_acquire a);
      Ksim.Klock.release a);
  check
    Alcotest.(list (pair string string))
    "trylock recorded an edge" [ ("B", "A") ] (Ksim.Lockdep.edges dep);
  Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()));
  check Alcotest.int "inversion against the trylock edge reported" 1
    (Ksim.Lockdep.warning_count dep)

(* Kthread ------------------------------------------------------------------ *)

let test_scheduler_runs_all () =
  let sched = Ksim.Kthread.create () in
  let log = ref [] in
  for i = 1 to 3 do
    ignore
      (Ksim.Kthread.spawn sched ~name:(string_of_int i) (fun () ->
           log := i :: !log;
           Ksim.Kthread.yield ();
           log := (10 * i) :: !log))
  done;
  Ksim.Kthread.run sched;
  check Alcotest.(list int) "round robin order" [ 1; 2; 3; 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "no failures" 0 (List.length (Ksim.Kthread.failures sched))

let test_scheduler_seeded_deterministic () =
  let run seed =
    let sched = Ksim.Kthread.create ~seed () in
    let log = ref [] in
    for i = 1 to 4 do
      ignore
        (Ksim.Kthread.spawn sched ~name:(string_of_int i) (fun () ->
             log := i :: !log;
             Ksim.Kthread.yield ();
             log := i :: !log))
    done;
    Ksim.Kthread.run sched;
    List.rev !log
  in
  check Alcotest.(list int) "same seed same schedule" (run 7) (run 7);
  (* A different seed typically gives a different interleaving; at minimum
     the multiset of events is preserved. *)
  check Alcotest.int "all events" 8 (List.length (run 8))

let test_scheduler_collects_failures () =
  let sched = Ksim.Kthread.create () in
  ignore (Ksim.Kthread.spawn sched ~name:"ok" (fun () -> ()));
  ignore (Ksim.Kthread.spawn sched ~name:"bad" (fun () -> failwith "oops"));
  Ksim.Kthread.run sched;
  match Ksim.Kthread.failures sched with
  | [ { Ksim.Kthread.failed_name; _ } ] -> check Alcotest.string "name" "bad" failed_name
  | l -> fail (Printf.sprintf "expected 1 failure, got %d" (List.length l))

let test_scheduler_lock_handoff () =
  (* Two threads contend on a lock; the spin-by-yield must hand over. *)
  let sched = Ksim.Kthread.create () in
  let l = Ksim.Klock.create ~name:"shared" () in
  let order = ref [] in
  ignore
    (Ksim.Kthread.spawn sched ~name:"a" (fun () ->
         Ksim.Klock.with_lock l (fun () ->
             order := "a-in" :: !order;
             Ksim.Kthread.yield ();
             order := "a-out" :: !order)));
  ignore
    (Ksim.Kthread.spawn sched ~name:"b" (fun () ->
         Ksim.Klock.with_lock l (fun () -> order := "b" :: !order)));
  Ksim.Kthread.run sched;
  check Alcotest.(list string) "critical sections do not interleave"
    [ "a-in"; "a-out"; "b" ] (List.rev !order);
  check Alcotest.bool "contention seen" true (Ksim.Klock.contentions l >= 1)

let test_scheduler_livelock_detected () =
  let sched = Ksim.Kthread.create ~max_steps:100 () in
  ignore
    (Ksim.Kthread.spawn sched ~name:"spin" (fun () ->
         while true do
           Ksim.Kthread.yield ()
         done));
  (match Ksim.Kthread.run sched with
  | _ -> fail "expected Livelock"
  | exception Ksim.Kthread.Livelock _ -> ());
  (* The aborted run leaves no thread current: outside any scheduler
     again, [yield] is the documented no-op. *)
  check Alcotest.int "self after Livelock" 0 (Ksim.Kthread.self ());
  Ksim.Kthread.yield ();
  Ksim.Kthread.run (Ksim.Kthread.create ());
  check Alcotest.int "self after a later run" 0 (Ksim.Kthread.self ())

(* The run queue as it was before the ring: a [Stdlib.Queue] of
   (tid, name, job) entries, the seeded pick rebuilding the queue
   without its i-th entry.  The ring must run the same threads in the
   same order. *)
module Queue_sched = struct
  type _ Effect.t += Yield : unit Effect.t

  let current = ref 0
  let self () = !current
  let yield () = if !current = 0 then () else Effect.perform Yield

  type job =
    | Start of (unit -> unit)
    | Resume of (unit, unit) Effect.Deep.continuation

  type t = {
    rng : Ksim.Rng.t option;
    queue : (int * string * job) Queue.t;
    mutable next_tid : int;
    mutable failures : int list;
  }

  let create ?seed () =
    { rng = Option.map Ksim.Rng.of_int seed; queue = Queue.create (); next_tid = 0; failures = [] }

  let spawn t ~name f =
    t.next_tid <- t.next_tid + 1;
    Queue.push (t.next_tid, name, Start f) t.queue;
    t.next_tid

  let dequeue t =
    if Queue.is_empty t.queue then None
    else
      match t.rng with
      | None -> Some (Queue.pop t.queue)
      | Some rng ->
          let n = Queue.length t.queue in
          let i = Ksim.Rng.int rng n in
          let picked = ref None in
          let rest = Queue.create () in
          for j = 0 to n - 1 do
            let e = Queue.pop t.queue in
            if j = i then picked := Some e else Queue.push e rest
          done;
          Queue.transfer rest t.queue;
          !picked

  let run t =
    let outer = !current in
    let rec schedule () =
      match dequeue t with
      | None -> current := outer
      | Some (tid, name, job) -> (
          current := tid;
          match job with
          | Start f -> Effect.Deep.match_with f () (handler tid name)
          | Resume k -> Effect.Deep.continue k ())
    and handler tid name =
      {
        Effect.Deep.retc = (fun () -> schedule ());
        exnc =
          (fun _ ->
            t.failures <- tid :: t.failures;
            schedule ());
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (a, _) Effect.Deep.continuation) ->
                    Queue.push (tid, name, Resume k) t.queue;
                    schedule ())
            | _ -> None);
      }
    in
    schedule ()
end

(* A thread as data, so one program runs under both schedulers. *)
type action =
  | Yield
  | Spawn of action list  (** a new thread, spawned mid-run *)
  | Raise

let rec pp_actions acts =
  "["
  ^ String.concat ";"
      (List.map
         (function Yield -> "y" | Raise -> "!" | Spawn b -> "spawn" ^ pp_actions b)
         acts)
  ^ "]"

(* Every turn a thread gets appends [self ()]: the schedule, as the
   sequence of tids run. *)
let interpret ~yield ~self ~spawn log actions =
  let rec thread actions () =
    log := self () :: !log;
    List.iter
      (function
        | Yield ->
            yield ();
            log := self () :: !log
        | Spawn body -> log := -spawn (thread body) :: !log
        | Raise -> failwith "thread raised")
      actions
  in
  thread actions

let ring_matches_queue_scheduler =
  let gen =
    let open QCheck2.Gen in
    let rec actions depth =
      list_size (int_range 0 6)
        (if depth = 0 then frequency [ (6, pure Yield); (1, pure Raise) ]
         else
           frequency
             [ (6, pure Yield); (1, pure Raise); (1, map (fun b -> Spawn b) (actions (depth - 1))) ])
    in
    pair (opt int) (list_size (int_range 1 40) (actions 2))
  in
  let print (seed, threads) =
    Printf.sprintf "seed %s, threads %s"
      (match seed with Some s -> string_of_int s | None -> "none (round-robin)")
      (String.concat " " (List.map pp_actions threads))
  in
  QCheck2.Test.make ~name:"ring runs what the Queue scheduler runs" ~count:300 ~print gen
    (fun (seed, threads) ->
      let ring =
        let sched = Ksim.Kthread.create ?seed () and log = ref [] in
        let spawn f = Ksim.Kthread.spawn sched ~name:"t" f in
        List.iter
          (fun acts ->
            ignore
              (spawn (interpret ~yield:Ksim.Kthread.yield ~self:Ksim.Kthread.self ~spawn log acts)))
          threads;
        Ksim.Kthread.run sched;
        (!log, List.map (fun f -> f.Ksim.Kthread.failed_tid) (Ksim.Kthread.failures sched))
      in
      let queue =
        let sched = Queue_sched.create ?seed () and log = ref [] in
        let spawn f = Queue_sched.spawn sched ~name:"t" f in
        List.iter
          (fun acts ->
            ignore (spawn (interpret ~yield:Queue_sched.yield ~self:Queue_sched.self ~spawn log acts)))
          threads;
        Queue_sched.run sched;
        (!log, List.rev sched.Queue_sched.failures)
      in
      ring = queue)

(* A yield allocates its continuation and the [Resume] holding it and
   keeps nothing else: with two threads each turn's allocation is dead
   by the next minor collection, so nothing is promoted. *)
let test_yields_promote_nothing () =
  let sched = Ksim.Kthread.create () in
  for i = 1 to 2 do
    ignore
      (Ksim.Kthread.spawn sched ~name:(string_of_int i) (fun () ->
           for _ = 1 to 100_000 do
             Ksim.Kthread.yield ()
           done))
  done;
  (* Start from an empty minor heap: count only what the run promotes. *)
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  Ksim.Kthread.run sched;
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  check Alcotest.bool
    (Printf.sprintf "2 x 100k yields promoted %.0f words" promoted)
    true (promoted < 1000.)

let test_lost_update_race () =
  (* The classic unsynchronized increment: with yields between read and
     write, updates are lost — the bug ownership safety rules out. *)
  let sched = Ksim.Kthread.create () in
  let counter = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Ksim.Kthread.spawn sched ~name:"inc" (fun () ->
           let v = !counter in
           Ksim.Kthread.yield ();
           counter := v + 1))
  done;
  Ksim.Kthread.run sched;
  check Alcotest.int "updates lost" 1 !counter

(* Ktrace ------------------------------------------------------------------- *)

let test_trace_basic () =
  let tr = Ksim.Ktrace.create ~capacity:3 () in
  Ksim.Ktrace.emit tr 1;
  Ksim.Ktrace.emit tr 2;
  check Alcotest.(list int) "events oldest first" [ 1; 2 ] (Ksim.Ktrace.events tr);
  check Alcotest.int "total" 2 (Ksim.Ktrace.total tr);
  Ksim.Ktrace.emit tr 3;
  Ksim.Ktrace.emit tr 4 (* evicts 1 *);
  check Alcotest.(list int) "ring keeps the last 3" [ 2; 3; 4 ] (Ksim.Ktrace.events tr);
  check Alcotest.int "total still counts" 4 (Ksim.Ktrace.total tr);
  Ksim.Ktrace.clear tr;
  check Alcotest.int "cleared" 0 (Ksim.Ktrace.total tr);
  check Alcotest.(list int) "emptied" [] (Ksim.Ktrace.events tr)

(* Rng ----------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Ksim.Rng.of_int 1 and b = Ksim.Rng.of_int 1 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Ksim.Rng.int a 1000) (Ksim.Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Ksim.Rng.of_int 1 in
  let c = Ksim.Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let xs = List.init 10 (fun _ -> Ksim.Rng.int a 1_000_000) in
  let ys = List.init 10 (fun _ -> Ksim.Rng.int c 1_000_000) in
  check Alcotest.bool "streams differ" true (xs <> ys)

(* The reference SplitMix64, state in a boxed [int64]: [Ksim.Rng] keeps
   its state unboxed and must draw exactly the same values. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound = Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound
  let bool t = Int64.logand (next t) 1L = 1L
  let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
  let split t = { state = next t }

  let shuffle t xs =
    let arr = Array.of_list xs in
    for i = Array.length arr - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list arr

  let bytes t n = Bytes.init n (fun _ -> Char.chr (int t 256))
end

let rng_matches_boxed_reference =
  QCheck2.Test.make ~name:"rng draws equal the boxed reference" ~count:200 QCheck2.Gen.int
    (fun seed ->
      let r = Ksim.Rng.of_int seed and b = { Boxed_rng.state = Int64.of_int seed } in
      let same = ref true in
      let agree x y = same := !same && x = y in
      for i = 1 to 20 do
        agree (Ksim.Rng.next r) (Boxed_rng.next b);
        agree (Ksim.Rng.int r i) (Boxed_rng.int b i);
        agree (Ksim.Rng.int r max_int) (Boxed_rng.int b max_int);
        agree (Ksim.Rng.bool r) (Boxed_rng.bool b);
        agree (Ksim.Rng.float r) (Boxed_rng.float b)
      done;
      let rs = Ksim.Rng.split r and bs = Boxed_rng.split b in
      agree (Ksim.Rng.int rs 1_000_000) (Boxed_rng.int bs 1_000_000);
      let xs = List.init 17 Fun.id in
      agree (Ksim.Rng.shuffle r xs) (Boxed_rng.shuffle b xs);
      agree (Ksim.Rng.bytes r 33) (Boxed_rng.bytes b 33);
      agree (Ksim.Rng.int r 1000) (Boxed_rng.int b 1000);
      !same)

let test_rng_draws_allocate_nothing () =
  let rng = Ksim.Rng.of_int 42 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc + Ksim.Rng.int rng 1000;
    if Ksim.Rng.bool rng then incr acc
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool "drew something" true (!acc > 0);
  (* [Gc.minor_words] boxes its own float result. *)
  check Alcotest.bool (Printf.sprintf "1000 int + bool draws allocated %.0f words" words) true
    (words < 10.)

let rng_int_in_bounds =
  QCheck2.Test.make ~name:"rng.int always within bounds" ~count:500
    QCheck2.Gen.(pair int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Ksim.Rng.of_int seed in
      let v = Ksim.Rng.int rng bound in
      v >= 0 && v < bound)

let rng_float_in_unit =
  QCheck2.Test.make ~name:"rng.float in [0,1)" ~count:500 QCheck2.Gen.int (fun seed ->
      let rng = Ksim.Rng.of_int seed in
      let f = Ksim.Rng.float rng in
      f >= 0.0 && f < 1.0)

let rng_shuffle_permutation =
  QCheck2.Test.make ~name:"rng.shuffle is a permutation" ~count:200
    QCheck2.Gen.(pair int (list_size (int_range 0 30) int))
    (fun (seed, xs) ->
      let rng = Ksim.Rng.of_int seed in
      List.sort compare (Ksim.Rng.shuffle rng xs) = List.sort compare xs)

let rng_pick_member =
  QCheck2.Test.make ~name:"rng.pick returns a member" ~count:200
    QCheck2.Gen.(pair int (list_size (int_range 1 20) int))
    (fun (seed, xs) ->
      let rng = Ksim.Rng.of_int seed in
      List.mem (Ksim.Rng.pick rng xs) xs)

(* Failpoint ------------------------------------------------------------------ *)

let injection =
  Alcotest.of_pp (fun ppf (i : Ksim.Failpoint.injection) ->
      Fmt.pf ppf "%s: injected (hit %d, injection %d)" i.site i.hit i.injection)

let test_failpoint_interval_and_times () =
  let fp = Ksim.Failpoint.create ~seed:1 () in
  Ksim.Failpoint.configure fp "site" ~enabled:true ~interval:3 ~times:2 ();
  let fired = List.init 12 (fun _ -> Ksim.Failpoint.should_fail fp "site") in
  (* Hits 3 and 6 inject; then the times budget is gone. *)
  check Alcotest.(list bool) "every 3rd hit, twice"
    [ false; false; true; false; false; true; false; false; false; false; false; false ]
    fired;
  check Alcotest.int "hits counted" 12 (Ksim.Failpoint.hits fp "site");
  check Alcotest.int "injections counted" 2 (Ksim.Failpoint.injected fp "site");
  check Alcotest.int "total" 2 (Ksim.Failpoint.total_injected fp)

let test_failpoint_disabled_and_heal () =
  let fp = Ksim.Failpoint.create ~seed:1 () in
  (* Registered but never enabled: zero cost path, never fires. *)
  check Alcotest.bool "disabled never fires" false (Ksim.Failpoint.should_fail fp "quiet");
  Ksim.Failpoint.configure fp "loud" ~enabled:true ();
  check Alcotest.bool "enabled fires" true (Ksim.Failpoint.should_fail fp "loud");
  Ksim.Failpoint.disable_all fp;
  check Alcotest.bool "healed" false (Ksim.Failpoint.should_fail fp "loud");
  check Alcotest.bool "bad probability rejected" true
    (try
       Ksim.Failpoint.configure fp "loud" ~probability:1.5 ();
       false
     with Invalid_argument _ -> true)

let test_failpoint_probability_replayable () =
  let run () =
    let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:77 () in
    Ksim.Failpoint.configure fp "p" ~enabled:true ~probability:0.4 ();
    let fired = List.init 64 (fun _ -> Ksim.Failpoint.should_fail fp "p") in
    (fired, Ksim.Failpoint.schedule fp)
  in
  let fired_a, sched_a = run () in
  let fired_b, sched_b = run () in
  check Alcotest.(list bool) "same seed, same draws" fired_a fired_b;
  check Alcotest.(list injection) "same schedule fingerprint" sched_a sched_b;
  let hits = List.length (List.filter Fun.id fired_a) in
  check Alcotest.bool "probability gate actually gates" true (hits > 0 && hits < 64);
  check Alcotest.(list int) "one entry per injection, numbered in order"
    (List.init hits succ)
    (List.map (fun (i : Ksim.Failpoint.injection) -> i.injection) sched_a);
  (* The per-site stream comes from (seed, name): registration order of
     other sites must not perturb it. *)
  let fp2 = Ksim.Failpoint.create ~seed:77 () in
  ignore (Ksim.Failpoint.register fp2 "aardvark");
  ignore (Ksim.Failpoint.register fp2 "zebra");
  Ksim.Failpoint.configure fp2 "p" ~enabled:true ~probability:0.4 ();
  let fired_c = List.init 64 (fun _ -> Ksim.Failpoint.should_fail fp2 "p") in
  check Alcotest.(list bool) "independent of registration order" fired_a fired_c

(* The knobs interact: [interval] gates eligibility by hit count, [times]
   budgets the injections, and exhaustion is observable and reversible by
   re-configuring. *)
let test_failpoint_interval_times_exhaustion () =
  let fp = Ksim.Failpoint.create ~seed:9 () in
  Ksim.Failpoint.configure fp "s" ~enabled:true ~interval:2 ~times:3 ();
  let fired = List.init 10 (fun _ -> Ksim.Failpoint.should_fail fp "s") in
  (* Eligible hits are 2, 4, 6, 8, 10; the times budget stops after three. *)
  check Alcotest.(list bool) "interval x times"
    [ false; true; false; true; false; true; false; false; false; false ]
    fired;
  check Alcotest.int "budget spent" 3 (Ksim.Failpoint.injected fp "s");
  (* Topping the budget back up resumes on the same hit parity: the next
     eligible hit is 12. *)
  Ksim.Failpoint.configure fp "s" ~times:1 ();
  let fired = List.init 2 (fun _ -> Ksim.Failpoint.should_fail fp "s") in
  check Alcotest.(list bool) "resumes on parity" [ false; true ] fired;
  check Alcotest.int "budget spent again" 4 (Ksim.Failpoint.injected fp "s")

let test_failpoint_reconfigure_after_disable_all () =
  let fp = Ksim.Failpoint.create ~seed:9 () in
  Ksim.Failpoint.configure fp "s" ~enabled:true ();
  check Alcotest.bool "fires" true (Ksim.Failpoint.should_fail fp "s");
  Ksim.Failpoint.disable_all fp;
  check Alcotest.bool "healed" false (Ksim.Failpoint.should_fail fp "s");
  (* disable_all keeps hits and streams: re-enabling with interval 3 is
     judged against the cumulative hit count (2 so far; next eligible is
     hit 3). *)
  Ksim.Failpoint.configure fp "s" ~enabled:true ~interval:3 ();
  let fired = List.init 4 (fun _ -> Ksim.Failpoint.should_fail fp "s") in
  check Alcotest.(list bool) "cumulative hits drive interval"
    [ true; false; false; true ] fired;
  check Alcotest.int "hits kept across heal" 6 (Ksim.Failpoint.hits fp "s")

let test_failpoint_streams_per_site () =
  (* Each site's probability stream is a function of (seed, name) only:
     two registries with the same seed but opposite registration orders
     agree draw-for-draw on every site. *)
  let draws fp name = List.init 32 (fun _ -> Ksim.Failpoint.should_fail fp name) in
  let fp_ab = Ksim.Failpoint.create ~seed:21 () in
  Ksim.Failpoint.configure fp_ab "alpha" ~enabled:true ~probability:0.5 ();
  Ksim.Failpoint.configure fp_ab "beta" ~enabled:true ~probability:0.5 ();
  let alpha_1 = draws fp_ab "alpha" in
  let beta_1 = draws fp_ab "beta" in
  let fp_ba = Ksim.Failpoint.create ~seed:21 () in
  Ksim.Failpoint.configure fp_ba "beta" ~enabled:true ~probability:0.5 ();
  Ksim.Failpoint.configure fp_ba "alpha" ~enabled:true ~probability:0.5 ();
  (* Interleave in the other order too: draws must not depend on it. *)
  let beta_2 = draws fp_ba "beta" in
  let alpha_2 = draws fp_ba "alpha" in
  check Alcotest.(list bool) "alpha agrees" alpha_1 alpha_2;
  check Alcotest.(list bool) "beta agrees" beta_1 beta_2;
  check Alcotest.bool "sites differ from each other" true (alpha_1 <> beta_1)

let test_failpoint_publish () =
  let fp = Ksim.Failpoint.create ~seed:3 () in
  Ksim.Failpoint.configure fp "s" ~enabled:true ();
  ignore (Ksim.Failpoint.should_fail fp "s");
  let stats = Ksim.Kstats.create () in
  Ksim.Failpoint.publish fp stats;
  check Alcotest.int "hits published" 1 (Ksim.Kstats.get stats "s.hits");
  check Alcotest.int "injected published" 1 (Ksim.Kstats.get stats "s.injected")

(* Hitting a site by the handle [register] returned is hitting it by
   name: one registry is driven by name only, a twin with the same seed
   and knobs by a random mix of handle and name hits, with knob changes
   (made by name) interleaved.  Answers, counters and the fault schedule
   must agree. *)
type fp_op =
  | Hit of int * bool (* site index; true = by handle *)
  | Knob of int * float * int (* site index, probability, times *)

let prop_failpoint_fire_is_should_fail =
  let names = [| "alpha"; "beta"; "gamma" |] in
  let op_gen =
    let open QCheck2.Gen in
    frequency
      [
        (8, map2 (fun i h -> Hit (i, h)) (int_range 0 2) bool);
        ( 1,
          map3
            (fun i p t -> Knob (i, p, t))
            (int_range 0 2)
            (oneofl [ 0.0; 0.3; 0.7; 1.0 ])
            (int_range (-1) 5) );
      ]
  in
  QCheck2.Test.make ~name:"fire by handle = should_fail by name" ~count:300
    QCheck2.Gen.(pair int (list_size (int_range 1 120) op_gen))
    (fun (seed, ops) ->
      let registry () =
        let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed () in
        Ksim.Failpoint.configure fp "alpha" ~enabled:true ~probability:0.5 ();
        Ksim.Failpoint.configure fp "beta" ~enabled:true ~interval:3 ~times:4 ();
        fp
      in
      let by_name = registry () and mixed = registry () in
      (* gamma stays disabled until a Knob op turns it on *)
      let handles = Array.map (Ksim.Failpoint.register mixed) names in
      let answers =
        List.filter_map
          (function
            | Hit (i, by_handle) ->
                let expected = Ksim.Failpoint.should_fail by_name names.(i) in
                let got =
                  if by_handle then Ksim.Failpoint.fire mixed handles.(i)
                  else Ksim.Failpoint.should_fail mixed names.(i)
                in
                Some (expected = got)
            | Knob (i, probability, times) ->
                List.iter
                  (fun fp ->
                    Ksim.Failpoint.configure fp names.(i) ~enabled:true ~probability ~times ())
                  [ by_name; mixed ];
                None)
          ops
      in
      let counters fp =
        Array.map (fun n -> (Ksim.Failpoint.hits fp n, Ksim.Failpoint.injected fp n)) names
      in
      List.for_all Fun.id answers
      && counters by_name = counters mixed
      && Ksim.Failpoint.schedule by_name = Ksim.Failpoint.schedule mixed)

(* Kstats --------------------------------------------------------------------- *)

let test_kstats () =
  let s = Ksim.Kstats.create () in
  Ksim.Kstats.incr s "x";
  Ksim.Kstats.incr ~by:4 s "x";
  Ksim.Kstats.incr s "y";
  check Alcotest.int "x" 5 (Ksim.Kstats.get s "x");
  check Alcotest.int "missing" 0 (Ksim.Kstats.get s "z");
  check Alcotest.(list (pair string int)) "sorted" [ ("x", 5); ("y", 1) ] (Ksim.Kstats.to_list s);
  Ksim.Kstats.reset s;
  check Alcotest.int "reset" 0 (Ksim.Kstats.get s "x")

let test_kstats_snapshot_diff () =
  let s = Ksim.Kstats.create () in
  Ksim.Kstats.incr ~by:3 s "kept";
  Ksim.Kstats.incr ~by:2 s "grown";
  let before = Ksim.Kstats.snapshot s in
  Ksim.Kstats.incr ~by:5 s "grown";
  Ksim.Kstats.incr s "fresh";
  let after = Ksim.Kstats.snapshot s in
  (* Only the counters that moved, with exact deltas; keys absent before
     count from zero. *)
  check Alcotest.(list (pair string int)) "diff"
    [ ("fresh", 1); ("grown", 5) ]
    (Ksim.Kstats.diff ~before ~after);
  check Alcotest.int "delta grown" 5 (Ksim.Kstats.delta ~before ~after "grown");
  check Alcotest.int "delta kept" 0 (Ksim.Kstats.delta ~before ~after "kept");
  check Alcotest.int "delta missing" 0 (Ksim.Kstats.delta ~before ~after "nope")

(* A handle reads like the name it stands for, registers only when
   bumped, and keeps counting across [reset]. *)
let test_kstats_handles () =
  let by_name = Ksim.Kstats.create () and by_handle = Ksim.Kstats.create () in
  let c = Ksim.Kstats.counter by_handle "c" and h = Ksim.Kstats.histogram by_handle "h" in
  let _never_bumped =
    (Ksim.Kstats.counter by_handle "idle", Ksim.Kstats.histogram by_handle "idle_h")
  in
  check Alcotest.(list (pair string int)) "created handles register nothing" []
    (Ksim.Kstats.snapshot by_handle);
  List.iter
    (fun v ->
      Ksim.Kstats.incr ~by:v by_name "c";
      Ksim.Kstats.observe by_name "h" (v * 100);
      Ksim.Kstats.bump ~by:v c;
      Ksim.Kstats.record h (v * 100))
    [ 1; 4; 2 ];
  Ksim.Kstats.incr by_name "c";
  Ksim.Kstats.bump c;
  check Alcotest.(list (pair string int)) "handle reads as name"
    (Ksim.Kstats.snapshot by_name) (Ksim.Kstats.snapshot by_handle);
  (* A name bumped both ways shares one counter. *)
  Ksim.Kstats.incr by_handle "c";
  check Alcotest.int "shared counter" 9 (Ksim.Kstats.get by_handle "c");
  Ksim.Kstats.reset by_handle;
  check Alcotest.(list (pair string int)) "reset empties" [] (Ksim.Kstats.snapshot by_handle);
  Ksim.Kstats.bump c;
  Ksim.Kstats.record h 7;
  check Alcotest.int "bumps after reset count" 1 (Ksim.Kstats.get by_handle "c");
  check Alcotest.int "records after reset count" 1
    (Ksim.Hist.count (Ksim.Kstats.hist by_handle "h"))

(* Supervisor ------------------------------------------------------------------ *)

(* A supervised module that panics on demand: [bad] arms the next call. *)
let sup_module () =
  let bad = ref false in
  let f () =
    if !bad then begin
      bad := false;
      raise (Ksim.Supervisor.Module_panic "test.site")
    end
    else Ok "ok"
  in
  (bad, f)

let test_supervisor_contains_and_reboots () =
  let bad, f = sup_module () in
  let sup = Ksim.Supervisor.create ~restart:Fun.id ~name:"mod" () in
  check Alcotest.string "healthy call passes" "ok"
    (Result.get_ok (Ksim.Supervisor.call sup f));
  bad := true;
  (* The panic is contained to EIO — never an uncaught exception. *)
  check Alcotest.bool "oops contained" true (Ksim.Supervisor.call sup f = Error Ksim.Errno.EIO);
  check Alcotest.bool "state oopsed" true (Ksim.Supervisor.state sup = Ksim.Supervisor.Oopsed);
  (* Before the backoff deadline the mount quiesces: calls drain EINTR. *)
  check Alcotest.bool "drains EINTR" true (Ksim.Supervisor.call sup f = Error Ksim.Errno.EINTR);
  (* First call past the deadline microreboots and then serves. *)
  check Alcotest.string "recovered" "ok" (Result.get_ok (Ksim.Supervisor.call sup f));
  check Alcotest.bool "healthy again" true
    (Ksim.Supervisor.state sup = Ksim.Supervisor.Healthy);
  check Alcotest.int "epoch bumped" 1 (Ksim.Supervisor.epoch sup);
  check Alcotest.int "one oops" 1 (Ksim.Supervisor.oopses sup);
  check Alcotest.int "one restart" 1 (Ksim.Supervisor.restarts sup);
  check Alcotest.bool "recovery latency on the simulated clock" true
    (Ksim.Supervisor.last_recovery_ns sup > 0)

let test_supervisor_stale_epochs () =
  let _, f = sup_module () in
  let sup = Ksim.Supervisor.create ~restart:Fun.id ~name:"mod" () in
  let handle = Ksim.Supervisor.epoch sup in
  check Alcotest.bool "fresh handle valid" true (Ksim.Supervisor.validate sup handle = Ok ());
  (* Oops and recover. *)
  check Alcotest.bool "oops" true
    (Ksim.Supervisor.call sup (fun () -> raise Exit) = Error Ksim.Errno.EIO);
  check Alcotest.bool "quiesce" true (Ksim.Supervisor.call sup f = Error Ksim.Errno.EINTR);
  check Alcotest.bool "reboot" true (Ksim.Supervisor.call sup f = Ok "ok");
  (* The pre-oops handle now belongs to a dead generation. *)
  check Alcotest.bool "stale handle" true
    (Ksim.Supervisor.validate sup handle = Error Ksim.Errno.ESTALE);
  check Alcotest.bool "fresh handle ok" true
    (Ksim.Supervisor.validate sup (Ksim.Supervisor.epoch sup) = Ok ());
  check Alcotest.int "stale rejections counted" 1 (Ksim.Supervisor.stale_rejected sup)

(* A handle minted before an oops misses the deferred microreboot's own
   call: [call_minted] reboots first, then validates, and never runs the
   operation on the rebuilt instance.  Checking costs the call nothing
   beyond its thunk. *)
let test_supervisor_call_minted () =
  let ran = ref 0 in
  let f () =
    incr ran;
    Ok "ok"
  in
  let sup = Ksim.Supervisor.create ~restart:Fun.id ~name:"mod" () in
  let old = Ksim.Supervisor.epoch sup in
  let call minted = Ksim.Supervisor.call_minted sup ~minted f in
  check Alcotest.bool "current handle runs" true (call old = Ok "ok");
  check Alcotest.bool "oops" true
    (Ksim.Supervisor.call sup (fun () -> raise Exit) = Error Ksim.Errno.EIO);
  check Alcotest.bool "quiesce" true (call old = Error Ksim.Errno.EINTR);
  let before = !ran in
  check Alcotest.bool "stale handle misses the rebooting call" true
    (call old = Error Ksim.Errno.ESTALE);
  check Alcotest.int "that call rebooted" 1 (Ksim.Supervisor.epoch sup);
  check Alcotest.int "operation not run" before !ran;
  check Alcotest.int "rejection counted" 1 (Ksim.Supervisor.stale_rejected sup);
  check Alcotest.bool "fresh handle reaches the new instance" true
    (call (Ksim.Supervisor.epoch sup) = Ok "ok");
  let n = 10_000 and epoch = Ksim.Supervisor.epoch sup in
  let words = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Ksim.Supervisor.call_minted sup ~minted:epoch f : string Ksim.Errno.r)
  done;
  let per_call = (Gc.minor_words () -. words) /. float_of_int n in
  check Alcotest.bool (Printf.sprintf "%.2f minor words per call" per_call) true (per_call < 1.)

let test_supervisor_escalates_to_failed () =
  let policy =
    { Ksim.Supervisor.restart_budget = 2; backoff_base = 100; backoff_cap = 100; op_cost = 100 }
  in
  let sup = Ksim.Supervisor.create ~policy ~restart:Fun.id ~name:"mod" () in
  let transitions = ref [] in
  Ksim.Supervisor.set_observer sup (fun _ to_ -> transitions := to_ :: !transitions);
  let always_panics () = raise (Ksim.Supervisor.Module_panic "test.site") in
  (* Drive it to budget exhaustion: every recovery immediately re-oopses.
     No call may ever raise — containment holds through escalation. *)
  let results = List.init 8 (fun _ -> Ksim.Supervisor.call sup always_panics) in
  check Alcotest.bool "escalated" true (Ksim.Supervisor.state sup = Ksim.Supervisor.Failed);
  check Alcotest.int "escalation counted" 1 (Ksim.Supervisor.escalations sup);
  check Alcotest.int "budget spent exactly" 2 (Ksim.Supervisor.restarts sup);
  (* Degraded mode answers EIO forever after. *)
  check Alcotest.bool "degraded EIO" true
    (Ksim.Supervisor.call sup (fun () -> Ok "up") = Error Ksim.Errno.EIO);
  check Alcotest.bool "only errno results" true
    (List.for_all
       (fun r -> r = Error Ksim.Errno.EIO || r = Error Ksim.Errno.EINTR)
       results);
  check Alcotest.bool "observer saw Failed" true
    (List.mem Ksim.Supervisor.Failed !transitions)

let test_supervisor_failed_restart_burns_budget () =
  let policy =
    { Ksim.Supervisor.restart_budget = 1; backoff_base = 100; backoff_cap = 100; op_cost = 100 }
  in
  let sup =
    Ksim.Supervisor.create ~policy ~restart:(fun () -> failwith "device gone") ~name:"mod" ()
  in
  check Alcotest.bool "oops" true
    (Ksim.Supervisor.call sup (fun () -> raise Exit) = Error Ksim.Errno.EIO);
  (* The restart itself fails: budget burns, escalation follows. *)
  check Alcotest.bool "failed restart degrades" true
    (Ksim.Supervisor.call sup (fun () -> Ok ()) = Error Ksim.Errno.EIO);
  check Alcotest.bool "failed" true (Ksim.Supervisor.state sup = Ksim.Supervisor.Failed);
  check Alcotest.int "budget spent" 1 (Ksim.Supervisor.restarts sup)

let test_supervisor_replayable () =
  (* The whole lifecycle is a function of the call sequence: two fresh
     supervisors driven identically agree on every observable. *)
  let drive () =
    let bad, f = sup_module () in
    let sup = Ksim.Supervisor.create ~restart:Fun.id ~name:"mod" () in
    let results =
      List.init 12 (fun i ->
          if i = 2 || i = 7 then bad := true;
          Ksim.Supervisor.call sup f)
    in
    ( results,
      Ksim.Supervisor.epoch sup,
      Ksim.Supervisor.clock sup,
      Ksim.Supervisor.oopses sup,
      Ksim.Supervisor.total_recovery_ns sup )
  in
  let a = drive () in
  let b = drive () in
  check Alcotest.bool "bit-identical replay" true (a = b)

(* A restart that fails once and then succeeds is two attempts: the live
   counter and [restarts] agree, and the one completed microreboot is the
   recovery histogram's count. *)
let test_supervisor_restarts_counted_one_way () =
  let stats = Ksim.Kstats.create () in
  let refusals = ref 1 in
  let restart () =
    if !refusals > 0 then begin
      decr refusals;
      failwith "not yet"
    end
  in
  let sup = Ksim.Supervisor.create ~stats ~restart ~name:"fs" () in
  check Alcotest.bool "oops" true
    (Ksim.Supervisor.call sup (fun () -> raise Exit) = Error Ksim.Errno.EIO);
  let rec drain n =
    if n > 200 then fail "never recovered";
    match Ksim.Supervisor.call sup (fun () -> Ok ()) with Ok () -> () | Error _ -> drain (n + 1)
  in
  drain 0;
  check Alcotest.int "two attempts" 2 (Ksim.Supervisor.restarts sup);
  check Alcotest.int "live counter agrees" 2 (Ksim.Kstats.get stats "supervisor.restarts");
  check Alcotest.int "one completed microreboot" 1
    (List.assoc "supervisor.recovery_ns#count" (Ksim.Kstats.to_list stats))

(* Without a ring nothing is recorded or formatted: an injecting [fire]
   and a stale-epoch [validate] allocate under one minor word per call. *)
let test_untraced_paths_allocate_nothing () =
  let words_per_call f =
    let n = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let fp = Ksim.Failpoint.create ~seed:1 () in
  let site = Ksim.Failpoint.register fp "s" in
  Ksim.Failpoint.configure fp "s" ~enabled:true ();
  let fire = words_per_call (fun () -> ignore (Ksim.Failpoint.fire fp site)) in
  check Alcotest.int "every fire injected" 10_000 (Ksim.Failpoint.injected fp "s");
  check Alcotest.bool (Printf.sprintf "fire: %.1f words per call" fire) true (fire < 1.0);
  check Alcotest.(list injection) "no schedule kept" [] (Ksim.Failpoint.schedule fp);
  let sup = Ksim.Supervisor.create ~name:"s" () in
  let validate = words_per_call (fun () -> ignore (Ksim.Supervisor.validate sup 1)) in
  check Alcotest.int "every handle stale" 10_000 (Ksim.Supervisor.stale_rejected sup);
  check Alcotest.bool
    (Printf.sprintf "stale validate: %.1f words per call" validate)
    true (validate < 1.0)

(* Each counter lands once, under [supervisor.*]: no per-name copy that
   a sum over the table would count twice. *)
let test_supervisor_live_counters () =
  let stats = Ksim.Kstats.create () in
  let sup = Ksim.Supervisor.create ~stats ~restart:Fun.id ~name:"fs" () in
  check Alcotest.bool "oops" true
    (Ksim.Supervisor.call sup (fun () -> raise Exit) = Error Ksim.Errno.EIO);
  check Alcotest.int "live counter" 1 (Ksim.Kstats.get stats "supervisor.oopses");
  check Alcotest.(list string) "no per-name copy" []
    (List.filter_map
       (fun (k, _) -> if String.starts_with ~prefix:"supervisor.fs." k then Some k else None)
       (Ksim.Kstats.to_list stats))

(* Hist: the HdrHistogram-lite percentile sketch ------------------------- *)

let test_hist_percentiles () =
  let h = Ksim.Hist.create () in
  for v = 1 to 1000 do
    Ksim.Hist.record h v
  done;
  check Alcotest.int "count" 1000 (Ksim.Hist.count h);
  check Alcotest.int "min exact" 1 (Ksim.Hist.min_value h);
  check Alcotest.int "max exact" 1000 (Ksim.Hist.max_value h);
  let within pct want got =
    let err = abs (got - want) in
    if float_of_int err > (0.035 *. float_of_int want) +. 1.0 then
      fail (Printf.sprintf "%s: want ~%d got %d" pct want got)
  in
  within "p50" 500 (Ksim.Hist.percentile h 50.0);
  within "p95" 950 (Ksim.Hist.percentile h 95.0);
  within "p99" 990 (Ksim.Hist.percentile h 99.0);
  check Alcotest.int "p100 clamps to observed max" 1000 (Ksim.Hist.percentile h 100.0);
  within "mean" 500 (int_of_float (Ksim.Hist.mean h));
  let s = Ksim.Hist.summarize h in
  check Alcotest.bool "summary ordered" true
    (s.Ksim.Hist.p50 <= s.Ksim.Hist.p95 && s.p95 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max)

let test_hist_merge () =
  let a = Ksim.Hist.create () and b = Ksim.Hist.create () in
  List.iter (Ksim.Hist.record a) [ 10; 20; 30 ];
  List.iter (Ksim.Hist.record b) [ 40; 50000 ];
  Ksim.Hist.merge_into ~dst:a b;
  check Alcotest.int "merged count" 5 (Ksim.Hist.count a);
  check Alcotest.int "merged min" 10 (Ksim.Hist.min_value a);
  check Alcotest.int "merged max" 50000 (Ksim.Hist.max_value a);
  check Alcotest.int "merged total" 50100 (Ksim.Hist.total a)

let test_hist_create_is_small () =
  let before = Gc.allocated_bytes () in
  let h = Sys.opaque_identity (Ksim.Hist.create ()) in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  ignore h;
  check Alcotest.bool (Printf.sprintf "create allocates %.0f words" words) true (words < 48.0)

let test_hist_empty_merge_reset () =
  let summary = Alcotest.testable Ksim.Hist.pp_summary ( = ) in
  let empty =
    { Ksim.Hist.count = 0; min = 0; mean = 0.0; max = 0; p50 = 0; p95 = 0; p99 = 0; p999 = 0 }
  in
  let filled () =
    let h = Ksim.Hist.create () in
    List.iter (Ksim.Hist.record h) [ 7; 300; 4_000 ];
    h
  in
  let full = Ksim.Hist.summarize (filled ()) in
  check summary "empty" empty (Ksim.Hist.summarize (Ksim.Hist.create ()));
  let a = Ksim.Hist.create () in
  Ksim.Hist.merge_into ~dst:a (Ksim.Hist.create ());
  check summary "empty merged into empty" empty (Ksim.Hist.summarize a);
  Ksim.Hist.merge_into ~dst:a (filled ());
  check summary "filled merged into empty" full (Ksim.Hist.summarize a);
  Ksim.Hist.merge_into ~dst:a (Ksim.Hist.create ());
  check summary "empty merged into filled" full (Ksim.Hist.summarize a);
  Ksim.Hist.reset a;
  check summary "reset" empty (Ksim.Hist.summarize a);
  Ksim.Hist.merge_into ~dst:a (Ksim.Hist.create ());
  check summary "empty merged into reset" empty (Ksim.Hist.summarize a);
  List.iter (Ksim.Hist.record a) [ 7; 300; 4_000 ];
  check summary "refilled after reset" full (Ksim.Hist.summarize a)

let test_kstats_hist_snapshot () =
  let stats = Ksim.Kstats.create () in
  List.iter (Ksim.Kstats.observe stats "lat") [ 100; 200; 300 ];
  let l = Ksim.Kstats.to_list stats in
  check Alcotest.int "derived count entry" 3 (List.assoc "lat#count" l);
  check Alcotest.int "derived min entry" 100 (List.assoc "lat#min" l);
  check Alcotest.bool "derived p99 entry present" true (List.mem_assoc "lat#p99" l)

(* Supervisor recovery aggregation (over all microreboots) ---------------- *)

let test_supervisor_recovery_aggregation () =
  let bad, f = sup_module () in
  let stats = Ksim.Kstats.create () in
  let sup = Ksim.Supervisor.create ~stats ~restart:Fun.id ~name:"mod" () in
  (* Three oops/recover cycles; each recovery waits out a longer backoff,
     so the histogram sees three distinct latencies. *)
  for _ = 1 to 3 do
    bad := true;
    let rec drain n =
      if n > 200 then fail "never recovered";
      match Ksim.Supervisor.call sup f with Ok _ -> () | Error _ -> drain (n + 1)
    in
    drain 0
  done;
  let s = Ksim.Supervisor.recovery sup in
  check Alcotest.int "three recoveries aggregated" 3 s.Ksim.Hist.count;
  check Alcotest.bool "min positive" true (s.Ksim.Hist.min > 0);
  check Alcotest.bool "ordered" true
    (s.Ksim.Hist.min <= s.Ksim.Hist.p50 && s.Ksim.Hist.p50 <= s.Ksim.Hist.p99
   && s.Ksim.Hist.p99 <= s.Ksim.Hist.max);
  check Alcotest.bool "max saw the longest backoff" true
    (s.Ksim.Hist.max > s.Ksim.Hist.min);
  (* Live observation into the stats table. *)
  check Alcotest.int "live hist entry" 3
    (List.assoc "supervisor.recovery_ns#count" (Ksim.Kstats.to_list stats))

(* Storm composition (satellite: composed failpoint schedules) ------------ *)

let test_storm_overlap_composition () =
  let fp = Ksim.Failpoint.create ~seed:1 () in
  let storm = Ksim.Storm.create ~fp () in
  Ksim.Storm.add storm
    [ { Ksim.Storm.site = "s"; start = 0; stop = 10; probability = 0.5; times = 3 } ];
  Ksim.Storm.add storm
    [ { Ksim.Storm.site = "s"; start = 5; stop = 15; probability = 0.5; times = 4 } ];
  (* In the overlap: union probability, summed finite budgets. *)
  (match Ksim.Storm.active storm 7 with
  | [ ("s", p, budget) ] ->
      check (Alcotest.float 1e-9) "union probability" 0.75 p;
      check Alcotest.int "summed budget" 7 budget
  | l -> fail (Printf.sprintf "overlap: %d active sites" (List.length l)));
  (* Outside the overlap only the second burst covers. *)
  (match Ksim.Storm.active storm 12 with
  | [ ("s", p, budget) ] ->
      check (Alcotest.float 1e-9) "single probability" 0.5 p;
      check Alcotest.int "single budget" 4 budget
  | _ -> fail "post-overlap");
  check Alcotest.int "past the storm: nothing active" 0
    (List.length (Ksim.Storm.active storm 20));
  (* tick applies the composition to the registry. *)
  Ksim.Storm.tick storm 7;
  let site = List.find (fun s -> s.Ksim.Failpoint.name = "s") (Ksim.Failpoint.sites fp) in
  check Alcotest.bool "site enabled in window" true site.Ksim.Failpoint.enabled;
  check (Alcotest.float 1e-9) "site probability composed" 0.75
    site.Ksim.Failpoint.probability;
  Ksim.Storm.tick storm 20;
  check Alcotest.bool "site disabled past the storm" false site.Ksim.Failpoint.enabled;
  (* Unlimited wins over finite budgets. *)
  Ksim.Storm.add storm
    [ { Ksim.Storm.site = "s"; start = 0; stop = 10; probability = 0.1; times = -1 } ];
  match Ksim.Storm.active storm 7 with
  | [ ("s", _, budget) ] -> check Alcotest.int "unlimited wins" (-1) budget
  | _ -> fail "unlimited compose"

let test_storm_disable_mid_burst () =
  let fp = Ksim.Failpoint.create ~seed:2 () in
  let storm = Ksim.Storm.create ~fp () in
  Ksim.Storm.add storm
    [ { Ksim.Storm.site = "s"; start = 0; stop = 100; probability = 1.0; times = -1 } ];
  Ksim.Storm.tick storm 10;
  check Alcotest.bool "armed mid-burst" true (Ksim.Failpoint.should_fail fp "s");
  Ksim.Storm.disable storm;
  check Alcotest.bool "disable kills the site" false (Ksim.Failpoint.should_fail fp "s");
  (* A later tick re-arms whatever its window says: permanent shutdown is
     simply not ticking again. *)
  Ksim.Storm.tick storm 11;
  check Alcotest.bool "tick re-arms inside the window" true
    (Ksim.Failpoint.should_fail fp "s")

let test_storm_replay_determinism () =
  let drive () =
    let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:77 () in
    let storm = Ksim.Storm.create ~fp () in
    Ksim.Storm.add storm
      [
        { Ksim.Storm.site = "a"; start = 5; stop = 40; probability = 0.4; times = -1 };
        { Ksim.Storm.site = "b"; start = 20; stop = 60; probability = 0.3; times = 5 };
      ];
    Ksim.Storm.add storm
      [ { Ksim.Storm.site = "a"; start = 30; stop = 50; probability = 0.4; times = -1 } ];
    let hits = ref [] in
    for now = 0 to 70 do
      Ksim.Storm.tick storm now;
      hits := Ksim.Failpoint.should_fail fp "a" :: Ksim.Failpoint.should_fail fp "b" :: !hits
    done;
    (!hits, Ksim.Failpoint.schedule fp, Ksim.Failpoint.total_injected fp)
  in
  let a = drive () and b = drive () in
  check Alcotest.bool "same seed, same tick sequence: identical injections" true (a = b);
  let _, schedule, injected = a in
  check Alcotest.bool "the storm actually injected" true (injected > 0);
  check Alcotest.int "schedule records every injection" injected (List.length schedule)

(* The storm's tick before it cached the edge-free range, kept as the
   reference: every tick rescans every site against every burst. *)
module Ref_storm = struct
  type t = {
    fp : Ksim.Failpoint.t;
    mutable bursts : Ksim.Storm.burst list;
    applied : (string, int list) Hashtbl.t;
  }

  let create fp = { fp; bursts = []; applied = Hashtbl.create 8 }

  let add t schedule =
    t.bursts <-
      List.stable_sort
        (fun (a : Ksim.Storm.burst) (b : Ksim.Storm.burst) ->
          match String.compare a.site b.site with
          | 0 -> ( match compare a.start b.start with 0 -> compare a.stop b.stop | c -> c)
          | c -> c)
        (t.bursts @ schedule)

  let sites t = List.sort_uniq String.compare (List.map (fun (b : Ksim.Storm.burst) -> b.site) t.bursts)

  let tick t now =
    List.iter
      (fun site ->
        let cover =
          List.mapi (fun i b -> (i, b)) t.bursts
          |> List.filter (fun (_, (b : Ksim.Storm.burst)) ->
                 String.equal b.site site && b.start <= now && now < b.stop)
        in
        let signature = List.map fst cover in
        if Hashtbl.find_opt t.applied site <> Some signature then begin
          Hashtbl.replace t.applied site signature;
          match cover with
          | [] -> Ksim.Failpoint.configure t.fp site ~enabled:false ()
          | _ ->
              let probability =
                1.0
                -. List.fold_left
                     (fun acc (_, (b : Ksim.Storm.burst)) -> acc *. (1.0 -. b.probability))
                     1.0 cover
              in
              let times =
                if List.exists (fun (_, (b : Ksim.Storm.burst)) -> b.times < 0) cover then -1
                else List.fold_left (fun acc (_, (b : Ksim.Storm.burst)) -> acc + b.times) 0 cover
              in
              Ksim.Failpoint.configure t.fp site ~enabled:true ~probability ~times ()
        end)
      (sites t)

  let disable t =
    List.iter (fun site -> Ksim.Failpoint.configure t.fp site ~enabled:false ()) (sites t);
    Hashtbl.reset t.applied
end

type storm_op =
  | Add of Ksim.Storm.burst list
  | Tick of int
  | Should_fail of string
  | Disable

let pp_storm_op = function
  | Add bs ->
      "add "
      ^ String.concat ","
          (List.map
             (fun (b : Ksim.Storm.burst) ->
               Printf.sprintf "%s[%d,%d)p%g/%d" b.site b.start b.stop b.probability b.times)
             bs)
  | Tick n -> Printf.sprintf "tick %d" n
  | Should_fail s -> "should_fail " ^ s
  | Disable -> "disable"

let storm_op_gen =
  let open QCheck2.Gen in
  let site = oneofl [ "a"; "b"; "c" ] in
  let burst =
    map
      (fun (site, start, len, (probability, times)) ->
        { Ksim.Storm.site; start; stop = start + len; probability; times })
      (quad site (int_range 0 40) (int_range 1 20)
         (pair (oneofl [ 0.0; 0.25; 0.5; 1.0 ]) (int_range (-1) 4)))
  in
  frequency
    [
      (1, map (fun bs -> Add bs) (list_size (int_range 1 3) burst));
      (6, map (fun n -> Tick n) (int_range 0 64));
      (4, map (fun s -> Should_fail s) site);
      (1, pure Disable);
    ]

let prop_storm_tick_matches_reference =
  QCheck2.Test.make ~name:"cached tick = rescan-every-tick reference" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map pp_storm_op ops))
    QCheck2.Gen.(list_size (int_range 1 80) storm_op_gen)
    (fun ops ->
      let registry () = Ksim.Failpoint.create ~seed:9 () in
      let fp = registry () and ref_fp = registry () in
      let storm = Ksim.Storm.create ~fp () and reference = Ref_storm.create ref_fp in
      let knobs fp =
        List.map
          (fun (s : Ksim.Failpoint.site) ->
            (s.name, s.enabled, s.probability, s.times, s.hits, s.injected))
          (Ksim.Failpoint.sites fp)
      in
      List.for_all
        (fun op ->
          (match op with
          | Add bs ->
              Ksim.Storm.add storm bs;
              Ref_storm.add reference bs
          | Tick now ->
              Ksim.Storm.tick storm now;
              Ref_storm.tick reference now
          | Should_fail site ->
              ignore (Ksim.Failpoint.should_fail fp site);
              ignore (Ksim.Failpoint.should_fail ref_fp site)
          | Disable ->
              Ksim.Storm.disable storm;
              Ref_storm.disable reference);
          knobs fp = knobs ref_fp)
        ops)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ksim"
    [
      ( "errno",
        [
          Alcotest.test_case "roundtrip" `Quick test_errno_roundtrip;
          Alcotest.test_case "known codes" `Quick test_errno_codes;
          Alcotest.test_case "unknown code" `Quick test_errno_unknown_code;
          Alcotest.test_case "result bind" `Quick test_errno_bind;
        ] );
      ( "dyn",
        [
          Alcotest.test_case "roundtrip" `Quick test_dyn_roundtrip;
          Alcotest.test_case "type confusion" `Quick test_dyn_mismatch;
          Alcotest.test_case "same-name keys differ" `Quick test_dyn_same_name_different_keys;
          Alcotest.test_case "null" `Quick test_dyn_null;
          Alcotest.test_case "errptr convention" `Quick test_errptr;
        ] );
      ( "kmem",
        [
          Alcotest.test_case "alloc/read/write/free" `Quick test_kmem_alloc_read_write;
          Alcotest.test_case "use-after-free" `Quick test_kmem_use_after_free;
          Alcotest.test_case "double free" `Quick test_kmem_double_free;
          Alcotest.test_case "non-strict write-after-free" `Quick test_kmem_nonstrict_write_after_free;
          Alcotest.test_case "leak report" `Quick test_kmem_leaks;
          Alcotest.test_case "is_live" `Quick test_kmem_is_live;
          Alcotest.test_case "export pins no heap" `Quick test_kmem_export_pins_nothing;
        ] );
      ( "klock",
        [
          Alcotest.test_case "basic" `Quick test_lock_basic;
          Alcotest.test_case "self deadlock" `Quick test_lock_self_deadlock;
          Alcotest.test_case "release by non-holder" `Quick test_lock_release_by_nonholder;
          Alcotest.test_case "with_lock releases on exn" `Quick test_with_lock_releases_on_exception;
          Alcotest.test_case "guarded race detection" `Quick test_guarded_race_detection;
          Alcotest.test_case "guarded strict raises" `Quick test_guarded_strict_raises;
        ] );
      ( "lockdep",
        [
          Alcotest.test_case "consistent order clean" `Quick test_lockdep_consistent_order_clean;
          Alcotest.test_case "inversion detected" `Quick test_lockdep_inversion_detected;
          Alcotest.test_case "transitive cycle" `Quick test_lockdep_transitive_cycle;
          Alcotest.test_case "across threads" `Quick test_lockdep_across_threads;
          Alcotest.test_case "out-of-order release" `Quick test_lockdep_reentrant_stack;
          Alcotest.test_case "edges and exports" `Quick test_lockdep_edges_export;
          Alcotest.test_case "out-of-order release drops held edge" `Quick
            test_lockdep_release_out_of_order;
          Alcotest.test_case "re-acquire after release" `Quick
            test_lockdep_reacquire_after_release;
          Alcotest.test_case "trylock participates in ordering" `Quick
            test_lockdep_trylock_orders;
        ] );
      ( "kthread",
        [
          Alcotest.test_case "runs all threads" `Quick test_scheduler_runs_all;
          Alcotest.test_case "seeded determinism" `Quick test_scheduler_seeded_deterministic;
          Alcotest.test_case "collects failures" `Quick test_scheduler_collects_failures;
          Alcotest.test_case "lock handoff" `Quick test_scheduler_lock_handoff;
          Alcotest.test_case "livelock detected" `Quick test_scheduler_livelock_detected;
          Alcotest.test_case "lost update race" `Quick test_lost_update_race;
          Alcotest.test_case "yields promote nothing" `Quick test_yields_promote_nothing;
        ]
        @ qcheck [ ring_matches_queue_scheduler ] );
      ("ktrace", [ Alcotest.test_case "ring and counts" `Quick test_trace_basic ]);
      ( "rng",
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic
        :: Alcotest.test_case "split independence" `Quick test_rng_split_independent
        :: Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing
        :: qcheck
             [
               rng_matches_boxed_reference;
               rng_int_in_bounds;
               rng_float_in_unit;
               rng_shuffle_permutation;
               rng_pick_member;
             ]
      );
      ( "failpoint",
        [
          Alcotest.test_case "interval and times" `Quick test_failpoint_interval_and_times;
          Alcotest.test_case "disabled and heal" `Quick test_failpoint_disabled_and_heal;
          Alcotest.test_case "probability replayable" `Quick test_failpoint_probability_replayable;
          Alcotest.test_case "interval x times exhaustion" `Quick
            test_failpoint_interval_times_exhaustion;
          Alcotest.test_case "re-configure after disable_all" `Quick
            test_failpoint_reconfigure_after_disable_all;
          Alcotest.test_case "per-site streams vs registration order" `Quick
            test_failpoint_streams_per_site;
          Alcotest.test_case "publish counters" `Quick test_failpoint_publish;
          Alcotest.test_case "no ring, no allocation" `Quick test_untraced_paths_allocate_nothing;
        ]
        @ qcheck [ prop_failpoint_fire_is_should_fail ] );
      ( "kstats",
        [
          Alcotest.test_case "counters" `Quick test_kstats;
          Alcotest.test_case "snapshot diff" `Quick test_kstats_snapshot_diff;
          Alcotest.test_case "handles" `Quick test_kstats_handles;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "contains and microreboots" `Quick
            test_supervisor_contains_and_reboots;
          Alcotest.test_case "stale epochs -> ESTALE" `Quick test_supervisor_stale_epochs;
          Alcotest.test_case "call_minted: stale handle misses the reboot" `Quick
            test_supervisor_call_minted;
          Alcotest.test_case "escalates to failed" `Quick test_supervisor_escalates_to_failed;
          Alcotest.test_case "failed restart burns budget" `Quick
            test_supervisor_failed_restart_burns_budget;
          Alcotest.test_case "replayable" `Quick test_supervisor_replayable;
          Alcotest.test_case "live counters" `Quick test_supervisor_live_counters;
          Alcotest.test_case "restarts counted one way" `Quick
            test_supervisor_restarts_counted_one_way;
          Alcotest.test_case "recovery aggregation over all reboots" `Quick
            test_supervisor_recovery_aggregation;
        ] );
      ( "hist",
        [
          Alcotest.test_case "percentiles within resolution" `Quick test_hist_percentiles;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "create allocates no buckets" `Quick test_hist_create_is_small;
          Alcotest.test_case "empty, merged and reset summaries" `Quick
            test_hist_empty_merge_reset;
          Alcotest.test_case "kstats derived entries" `Quick test_kstats_hist_snapshot;
        ] );
      ( "storm",
        [
          Alcotest.test_case "overlapping schedules compose" `Quick
            test_storm_overlap_composition;
          Alcotest.test_case "disable mid-burst" `Quick test_storm_disable_mid_burst;
          Alcotest.test_case "replay determinism" `Quick test_storm_replay_determinism;
        ]
        @ qcheck [ prop_storm_tick_matches_reference ] );
      ("export", [ Alcotest.test_case "unwritable path raises" `Quick test_export_unwritable_raises ]);
    ]
