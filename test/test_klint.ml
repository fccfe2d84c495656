(* Tests for klint, the static safety-ladder linter: good/bad fixture
   snippets for each rule R1–R5, the domination and branch-join logic the
   stateful passes depend on, the interprocedural passes (kracer's
   lockset race rules, kown's ownership-lifetime rules R8–R11) with
   their runtime reconciliations, reconciliation of findings against
   claimed Registry levels (a Type_safe module with a cast_exn must
   fail), the baseline round-trip, and a self-lint of the shipped tree
   whose report must reconcile with the boot registry. *)

let check = Alcotest.check

module Level = Safeos_core.Level
module F = Klint.Finding
module E = Klint.Engine
module B = Klint.Baseline

(* Fixture plumbing ----------------------------------------------------- *)

let mkdir_p dir =
  let rec go d =
    if String.length d > 1 && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* Write [content] as [rel] under a throwaway root and lint it.  The
   snippets only need to parse — klint is syntactic, so unbound names
   are fine. *)
let lint_snippet ?(rel = "lib/fixture/snippet.ml") content =
  let root = Filename.temp_dir "klint_test" "" in
  let path = Filename.concat root rel in
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  match E.lint_file ~root rel with
  | Ok findings -> F.sort findings
  | Error msg -> Alcotest.fail ("fixture did not parse: " ^ msg)

let rule_ids findings = List.map (fun f -> F.rule_id f.F.rule) findings

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
  at 0

let ids = Alcotest.(list string)

(* Every fixture claims one subsystem at a chosen level, so the
   reconciliation tests can move the claim up and down the ladder. *)
let claiming level _path = { Klint.Subsystem.sub = "fixture"; level; registered = false }

let violations ?(baseline = []) level findings =
  (E.reconcile ~claim_of:(claiming level) ~baseline findings).E.violations

(* R1: unchecked casts --------------------------------------------------- *)

let test_r1_unchecked_cast () =
  let bad = lint_snippet "let f d = Ksim.Dyn.cast_exn key d\n" in
  check ids "cast_exn flagged" [ "R1" ] (rule_ids bad);
  check Alcotest.string "enclosing binding" "f" (List.hd bad).F.func;
  let good =
    lint_snippet
      "let f d = match Ksim.Dyn.project key d with Some x -> Some x | None -> None\n"
  in
  check ids "project is the checked path" [] (rule_ids good);
  (* a local function merely named cast_exn is not the Dyn one *)
  check ids "unqualified name not matched" [] (rule_ids (lint_snippet "let g d = cast_exn d\n"))

(* R2: err-ptr checks must dominate dereferences ------------------------- *)

let test_r2_unchecked_errptr () =
  let bad = lint_snippet "let f h = Errptr.deref h\n" in
  check ids "naked deref flagged" [ "R2" ] (rule_ids bad);
  let guarded =
    lint_snippet "let f h = if Errptr.is_err h then None else Some (Errptr.deref h)\n"
  in
  check ids "is_err dominates" [] (rule_ids guarded);
  let matched =
    lint_snippet
      "let f h =\n\
      \  match h with\n\
      \  | Errptr.Err e -> Error e\n\
      \  | Errptr.Ptr _ -> Ok (Errptr.deref h)\n"
  in
  check ids "Err/Ptr match dominates" [] (rule_ids matched);
  let bound =
    lint_snippet
      "let f h = let bad = Errptr.is_err h in if bad then None else Some (Errptr.deref h)\n"
  in
  check ids "stored check result dominates" [] (rule_ids bound);
  (* a check in a discarded branch does not dominate a later use *)
  let non_dominating =
    lint_snippet "let f h = (if Errptr.is_err h then () else ()); Errptr.deref h\n"
  in
  check ids "check must dominate, not merely precede" [ "R2" ] (rule_ids non_dominating)

(* R3: lock balance on every exit path ----------------------------------- *)

let test_r3_lock_balance () =
  let leak = lint_snippet "let f l = Klock.acquire l; compute l\n" in
  check ids "acquire without release" [ "R3" ] (rule_ids leak);
  let balanced = lint_snippet "let f l = Klock.acquire l; compute l; Klock.release l\n" in
  check ids "balanced pair is clean" [] (rule_ids balanced);
  let with_lock = lint_snippet "let f l = Klock.with_lock l (fun () -> compute l)\n" in
  check ids "with_lock is the blessed shape" [] (rule_ids with_lock);
  let skewed =
    lint_snippet "let f l c = Klock.acquire l; if c then Klock.release l else ()\n"
  in
  check ids "held on one branch only" [ "R3" ] (rule_ids skewed);
  let diverging =
    lint_snippet
      "let f l x =\n\
      \  Klock.acquire l;\n\
      \  match x with\n\
      \  | Some v -> Klock.release l; v\n\
      \  | None -> failwith \"boom\"\n"
  in
  check ids "diverging branch exempt from balance" [] (rule_ids diverging);
  let unowned = lint_snippet "let f l = Klock.release l\n" in
  check ids "release without acquire" [ "R3" ] (rule_ids unowned);
  (* two different locks each tracked by name *)
  let two =
    lint_snippet "let f a b = Klock.acquire a; Klock.acquire b; Klock.release a\n"
  in
  check ids "per-lock tracking" [ "R3" ] (rule_ids two)

(* R4: ownership bypass -------------------------------------------------- *)

let test_r4_ownership_bypass () =
  let bad = lint_snippet "let f b = Bytes.unsafe_get b 0\n" in
  check ids "Bytes.unsafe_* flagged" [ "R4" ] (rule_ids bad);
  let good = lint_snippet "let f b = Bytes.get b 0\n" in
  check ids "checked accessor clean" [] (rule_ids good);
  (* the ownership layer itself may touch raw representations *)
  let exempt =
    lint_snippet ~rel:"lib/ownership/fixture.ml" "let f b = Bytes.unsafe_get b 0\n"
  in
  check ids "lib/ownership exempt" [] (rule_ids exempt)

(* R5: must-check results ------------------------------------------------ *)

let test_r5_must_check () =
  let ignored = lint_snippet "let f t = ignore (submit_write t 0 data)\n" in
  check ids "ignore of must-check" [ "R5" ] (rule_ids ignored);
  let wild = lint_snippet "let _ = submit_write t 0 data\n" in
  check ids "let _ of must-check" [ "R5" ] (rule_ids wild);
  let typed = lint_snippet "let (_ : int r) = submit_write t 0 data\n" in
  check ids "typed wildcard is an acknowledgment" [] (rule_ids typed);
  let other = lint_snippet "let f t = ignore (helper t)\n" in
  check ids "non-must-check ignore is fine" [] (rule_ids other)

(* R7: annotation/body mismatches ---------------------------------------- *)

let test_r7_annotation_mismatch () =
  let honest = lint_snippet "let f l = Klock.acquire l [@@acquires \"l\"]\n" in
  check ids "@acquires with matching body is clean" [] (rule_ids honest);
  let liar = lint_snippet "let f l = compute l [@@acquires \"l\"]\n" in
  check ids "@acquires with no acquisition" [ "R7" ] (rule_ids liar);
  let imbalanced = lint_snippet "let f l = Klock.acquire l [@@must_hold \"l\"]\n" in
  check ids "@must_hold must not change the balance" [ "R7" ] (rule_ids imbalanced);
  let releaser = lint_snippet "let f l = Klock.release l [@@releases \"l\"]\n" in
  check ids "@releases licenses the naked release" [] (rule_ids releaser);
  (* without the annotation the same bodies are R3 territory *)
  let r3 = lint_snippet "let f l = Klock.acquire l\n" in
  check ids "unannotated imbalance is still R3" [ "R3" ] (rule_ids r3)

(* kracer: the interprocedural pass -------------------------------------- *)

(* Write a whole multi-file fixture tree and run the full engine on it,
   so call-graph construction, the fixpoints, and finding plumbing are
   all exercised together. *)
let lint_tree_fixture files =
  let root = Filename.temp_dir "kracer_test" "" in
  List.iter
    (fun (rel, content) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      let oc = open_out_bin path in
      output_string oc content;
      close_out oc)
    files;
  (root, E.lint_tree ~root)

let fixture_cell_module =
  "type t = { i_lock : Ksim.Klock.t; i_size : int Ksim.Klock.Guarded.cell }\n\
   let make i_lock =\n\
  \  { i_lock; i_size = Ksim.Klock.Guarded.create ~lock:i_lock ~name:\"i_size:0\" 0 }\n"

let test_kracer_r6_two_hops () =
  (* The seeded acceptance fixture: a Guarded.set reached through two
     call hops with no lock anywhere on the path. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/cellmod.ml",
          fixture_cell_module
          ^ "let set_size t n = Ksim.Klock.Guarded.set t.i_size n\n\
             let mid t n = set_size t n\n\
             let top t n = mid t n\n" );
      ]
  in
  let r6 = List.filter (fun f -> f.F.rule = F.R6_lockset_race) tree.E.findings in
  check Alcotest.int "unlocked write through two hops flagged" 1 (List.length r6);
  check Alcotest.string "flagged inside the accessor" "Cellmod.set_size" (List.hd r6).F.func

let test_kracer_r6_annotated_clean () =
  (* The same chain, annotated and locked at the top: the contracts
     thread the lock requirement down and everything discharges. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/cellmod.ml",
          fixture_cell_module
          ^ "(** @must_hold: i_lock *)\n\
             let set_size t n = Ksim.Klock.Guarded.set t.i_size n\n\
             (** @must_hold: i_lock *)\n\
             let mid t n = set_size t n\n\
             let top t n = Ksim.Klock.with_lock t.i_lock (fun () -> mid t n)\n" );
      ]
  in
  check ids "annotated chain is clean" [] (rule_ids tree.E.findings)

let test_kracer_r6_must_hold_call_site () =
  (* A caller that ignores a callee's @must_hold contract is flagged at
     the call site even when the callee never touches a Guarded cell. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/contract.ml",
          "(** @must_hold: i_lock *)\n\
           let locked_op i_lock = compute i_lock\n\
           let careless i_lock = locked_op i_lock\n" );
      ]
  in
  let r6 = List.filter (fun f -> f.F.rule = F.R6_lockset_race) tree.E.findings in
  check Alcotest.int "contract violation at the call site" 1 (List.length r6);
  check Alcotest.string "in the careless caller" "Contract.careless" (List.hd r6).F.func

let test_kracer_static_edges_and_cycles () =
  (* Both nestings of the same two locks: the static graph must contain
     both edges and predict the AB-BA deadlock as a cycle, including the
     acquisition that only happens inside a callee. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/order.ml",
          "let inner b_lock = Ksim.Klock.with_lock b_lock (fun () -> ())\n\
           let ab a_lock b_lock = Ksim.Klock.with_lock a_lock (fun () -> inner b_lock)\n\
           let ba a_lock b_lock =\n\
          \  Ksim.Klock.with_lock b_lock (fun () ->\n\
          \      Ksim.Klock.with_lock a_lock (fun () -> ()))\n" );
      ]
  in
  let k = tree.E.kracer in
  check Alcotest.bool "a->b edge (through the call)" true
    (List.mem ("a_lock", "b_lock") k.Klint.Kracer.edges);
  check Alcotest.bool "b->a edge (direct nesting)" true
    (List.mem ("b_lock", "a_lock") k.Klint.Kracer.edges);
  check
    Alcotest.(list (list string))
    "the AB-BA cycle is predicted"
    [ [ "a_lock"; "b_lock" ] ]
    k.Klint.Kracer.cycles

let test_kracer_runtime_reconciliation () =
  (* Class-collapse and subtraction: runtime instances of a statically
     known nesting are covered; an order the static graph lacks is
     reported as the unsound residue. *)
  let static = [ ("s_lock", "i_lock") ] in
  check
    Alcotest.(list (pair string string))
    "instance edges collapse onto the static class edge" []
    (Klint.Kracer.missing_runtime_edges ~static
       [ ("s_lock", "i_lock:3"); ("s_lock", "i_lock:7") ]);
  check
    Alcotest.(list (pair string string))
    "an unseen ordering surfaces" [ ("i_lock", "j_lock") ]
    (Klint.Kracer.missing_runtime_edges ~static
       [ ("s_lock", "i_lock:3"); ("i_lock:3", "j_lock:1") ]);
  (* The count klint prints: one class edge however many inodes a run
     created. *)
  check
    Alcotest.(list (pair string string))
    "class edges of a run" [ ("s_lock", "i_lock") ]
    (Klint.Kracer.runtime_class_edges
       [ ("s_lock", "i_lock:3"); ("s_lock", "i_lock:7"); ("s_lock", "i_lock:9") ])

let test_kracer_mli_annotation () =
  (* Contracts may live on the .mli val instead of the .ml binding. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/sigmod.ml",
          fixture_cell_module ^ "let set_size t n = Ksim.Klock.Guarded.set t.i_size n\n" );
        ( "lib/fixture/sigmod.mli",
          "type t\n\
           val make : Ksim.Klock.t -> t\n\
           (** @must_hold: i_lock *)\n\
           val set_size : t -> int -> unit\n" );
      ]
  in
  check ids "mli contract discharges the cell access" [] (rule_ids tree.E.findings)

(* kown: the ownership-lifetime pass ------------------------------------- *)

let is_own_rule = function
  | F.R8_use_after_free | F.R9_double_free | F.R10_error_leak | F.R11_borrow_escape ->
      true
  | _ -> false

let test_kown_r8_branch_join () =
  (* A free on only one arm of a branch MAY have happened afterwards —
     the join is a may-union, so the later write is a use-after-free. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/own.ml",
          "let f p c =\n\
          \  (if c then Ksim.Kmem.free p else ());\n\
          \  Ksim.Kmem.write p 1\n\
           let g p c =\n\
          \  Ksim.Kmem.write p 1;\n\
          \  if c then Ksim.Kmem.free p else ()\n" );
      ]
  in
  check ids "use after a may-free is flagged, use before is not" [ "R8" ]
    (rule_ids tree.E.findings);
  check Alcotest.string "in the branching function" "Own.f"
    (List.hd tree.E.findings).F.func

let test_kown_interprocedural_consume () =
  (* The consuming contract travels two call hops up the graph: [base]
     frees its argument, so [mid] consumes, so [top]'s later read is a
     use-after-move and [dbl]'s later free a double free. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/chain.ml",
          "let base p = Ksim.Kmem.free p\n\
           let mid p = base p\n\
           let top p = mid p; Ksim.Kmem.read p\n\
           let dbl p = base p; Ksim.Kmem.free p\n" );
      ]
  in
  let rule r = List.filter (fun f -> f.F.rule = r) tree.E.findings in
  (match rule F.R8_use_after_free with
  | [ f ] -> check Alcotest.string "use-after-move in the caller" "Chain.top" f.F.func
  | l -> Alcotest.fail (Fmt.str "expected one R8, got %d" (List.length l)));
  (match rule F.R9_double_free with
  | [ f ] -> check Alcotest.string "double free in the caller" "Chain.dbl" f.F.func
  | l -> Alcotest.fail (Fmt.str "expected one R9, got %d" (List.length l)));
  check Alcotest.int "consuming propagated to every function" 4
    tree.E.kown.Klint.Kown.consuming

let test_kown_r10_error_path () =
  (* Trigger 1: a locally allocated, unescaped object still owned when an
     [Error _] constructor is built leaks on that path; freeing first is
     the fix. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/errpath.ml",
          "let bad h c =\n\
          \  let p = Ksim.Kmem.alloc h ~site:\"s\" 0 in\n\
          \  if c then Error Enomem else Ok p\n\
           let good h c =\n\
          \  let p = Ksim.Kmem.alloc h ~site:\"s\" 0 in\n\
          \  if c then begin Ksim.Kmem.free p; Error Enomem end else Ok p\n" );
      ]
  in
  check ids "leak on the error arm only" [ "R10" ] (rule_ids tree.E.findings);
  check Alcotest.string "in the leaking function" "Errpath.bad"
    (List.hd tree.E.findings).F.func

let test_kown_r10_sibling_arm () =
  (* Trigger 2: both arms run the same Hashtbl.remove teardown but only
     one frees — the forgot-the-kfree-in-one-arm shape. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/twoarm.ml",
          "let unlink tbl ino p keep =\n\
          \  if keep then Hashtbl.remove tbl ino\n\
          \  else begin\n\
          \    Ksim.Kmem.free p;\n\
          \    Hashtbl.remove tbl ino\n\
          \  end\n\
           let both tbl ino p =\n\
          \  if Hashtbl.mem tbl ino then begin\n\
          \    Ksim.Kmem.free p;\n\
          \    Hashtbl.remove tbl ino\n\
          \  end\n\
          \  else begin\n\
          \    Ksim.Kmem.free p;\n\
          \    Hashtbl.remove tbl ino\n\
          \  end\n" );
      ]
  in
  check ids "the arm missing the free is flagged" [ "R10" ] (rule_ids tree.E.findings);
  check Alcotest.string "in the asymmetric function" "Twoarm.unlink"
    (List.hd tree.E.findings).F.func

let test_kown_r11_borrow_escape () =
  (* Borrows must stay inside their lend closure: storing one, returning
     one, freeing one, and touching a revoked capability are all R11;
     reading through the borrow inside the closure is the blessed use. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/borrow.ml",
          "let store_escape ck cap slot =\n\
          \  Ownership.Checker.lend_exclusive ck cap ~to_:\"x\" ~f:(fun b ->\n\
          \      slot.saved <- b)\n\
           let ret_escape ck cap =\n\
          \  Ownership.Checker.lend_shared ck cap ~to_:[ \"x\" ] ~f:(fun bs ->\n\
          \      match bs with [ b ] -> b | _ -> assert false)\n\
           let frees_borrow ck cap =\n\
          \  Ownership.Checker.lend_exclusive ck cap ~to_:\"x\" ~f:(fun b ->\n\
          \      Ownership.Checker.free ck b)\n\
           let revoked ck c =\n\
          \  Ownership.Cap.revoke c;\n\
          \  Ownership.Checker.read ck c ~off:0 ~len:1\n" );
        ( "lib/fixture/borrow_ok.ml",
          "let fine ck cap n =\n\
          \  Ownership.Checker.lend_shared ck cap ~to_:[ \"x\" ] ~f:(fun bs ->\n\
          \      match bs with\n\
          \      | [ b ] -> Bytes.to_string (Ownership.Checker.read ck b ~off:0 ~len:n)\n\
          \      | _ -> assert false)\n" );
      ]
  in
  check ids "every escape shape is R11, the in-scope read is clean"
    [ "R11"; "R11"; "R11"; "R11" ]
    (rule_ids tree.E.findings);
  List.iter
    (fun f -> check Alcotest.string "all in the bad file" "lib/fixture/borrow.ml" f.F.file)
    tree.E.findings

let test_kown_annotations () =
  (* Attribute-form contracts override the inference: without them the
     same bodies (opaque callees) lint clean; with them the caller's
     use-after-consume and error-path leak surface. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/annotated.ml",
          "let release p = dealloc p [@@consumes \"p\"]\n\
           let make h = priv_alloc h [@@returns_owned]\n\
           let f t = release t; Ksim.Kmem.read t\n\
           let g h c =\n\
          \  let q = make h in\n\
          \  if c then Error Enomem else begin Ksim.Kmem.free q; Ok () end\n" );
        ( "lib/fixture/unannotated.ml",
          "let release p = dealloc p\n\
           let make h = priv_alloc h\n\
           let f t = release t; Ksim.Kmem.read t\n\
           let g h c =\n\
          \  let q = make h in\n\
          \  if c then Error Enomem else begin Ksim.Kmem.free q; Ok () end\n" );
      ]
  in
  check ids "annotated contracts fire, unannotated twins stay clean" [ "R8"; "R10" ]
    (rule_ids tree.E.findings);
  List.iter
    (fun f ->
      check Alcotest.string "only the annotated file" "lib/fixture/annotated.ml" f.F.file)
    tree.E.findings

let test_kown_mli_annotation () =
  (* An ownership contract on the .mli val binds the .ml implementation,
     like kracer's @must_hold. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/res.ml",
          "let release r = dealloc r\nlet f r = release r; Ksim.Kmem.read r\n" );
        ( "lib/fixture/res.mli",
          "val f : 'a -> 'b\n(** @consumes: r *)\nval release : 'a -> unit\n" );
      ]
  in
  check ids "mli @consumes drives the caller check" [ "R8" ] (rule_ids tree.E.findings);
  check Alcotest.string "flagged at the use in the caller" "Res.f"
    (List.hd tree.E.findings).F.func

let test_kown_kmem_events () =
  (* subtraction: an event whose file already has a static finding of the
     matching rule is covered; one without is the unsound residue; heaps
     with no linted file (test scratch heaps) are skipped *)
  let _, tree =
    lint_tree_fixture
      [ ("lib/fixture/own_ev.ml", "let f p = Ksim.Kmem.free p; Ksim.Kmem.read p\n") ]
  in
  check ids "fixture carries the R8" [ "R8" ] (rule_ids tree.E.findings);
  let ev kind heap = { Klint.Kown.kind; heap; site = "s"; count = 1 } in
  let survivors =
    Klint.Kown.unflagged_kmem_events
      ~files:[ "lib/fixture/own_ev.ml" ]
      ~findings:tree.E.findings
      [ ev "uaf" "own_ev"; ev "uaf" "own_ev"; ev "double_free" "own_ev"; ev "leak" "scratch" ]
  in
  match survivors with
  | [ (e, file, rule) ] ->
      check Alcotest.string "unflagged event attributed to the file" "lib/fixture/own_ev.ml"
        file;
      check Alcotest.string "double_free maps to R9" "R9" (F.rule_id rule);
      check Alcotest.string "the surviving kind" "double_free" e.Klint.Kown.kind
  | l -> Alcotest.fail (Fmt.str "expected one unflagged event, got %d" (List.length l))

let test_kown_reconcile_ownership_claim () =
  (* A subsystem claiming Ownership_safe must not carry a double free —
     below that rung the finding is recorded but tolerated, and a
     grandfathered entry stays a non-violation. *)
  let _, tree =
    lint_tree_fixture
      [ ("lib/fixture/own_claim.ml", "let f p = Ksim.Kmem.free p; Ksim.Kmem.free p\n") ]
  in
  check ids "double free found" [ "R9" ] (rule_ids tree.E.findings);
  check Alcotest.int "violation under the Ownership_safe claim" 1
    (List.length (violations Level.Ownership_safe tree.E.findings));
  check Alcotest.int "tolerated under Modular" 0
    (List.length (violations Level.Modular tree.E.findings));
  check Alcotest.int "baselined finding tolerated" 0
    (List.length
       (violations
          ~baseline:(B.of_findings tree.E.findings)
          Level.Ownership_safe tree.E.findings))

let test_kown_baseline_renumbering () =
  (* Baseline entries are line-anchored: an unrelated edit above the
     finding renumbers it, the old entry goes stale and the finding
     reappears as a violation.  The ci ratchet compares per
     (rule, file, class) counts exactly so that this renumbering is not
     mistaken for growth. *)
  let fixture prefix =
    [ ("lib/fixture/own_base.ml", prefix ^ "let f p = Ksim.Kmem.free p; Ksim.Kmem.free p\n") ]
  in
  let _, t1 = lint_tree_fixture (fixture "") in
  let base = B.of_findings t1.E.findings in
  let _, t2 = lint_tree_fixture (fixture "let unrelated = 0\n") in
  let r = E.reconcile ~claim_of:(claiming Level.Ownership_safe) ~baseline:base t2.E.findings in
  check Alcotest.int "renumbered finding is no longer grandfathered" 1
    (List.length r.E.violations);
  check Alcotest.int "its old entry is reported stale" 1 (List.length r.E.stale_baseline)

(* Reconciliation -------------------------------------------------------- *)

let test_reconcile_cast_violation () =
  (* The acceptance fixture: a subsystem claiming Type_safe (or above)
     gains a Dyn.cast_exn — klint must report a violation. *)
  let findings = lint_snippet "let f d = Ksim.Dyn.cast_exn key d\n" in
  check Alcotest.int "violation at type-safe" 1
    (List.length (violations Level.Type_safe findings));
  check Alcotest.int "violation at verified" 1
    (List.length (violations Level.Verified findings));
  check Alcotest.int "tolerated at modular" 0
    (List.length (violations Level.Modular findings));
  (* grandfathered: recorded as forbidden but not a violation *)
  let r =
    E.reconcile ~claim_of:(claiming Level.Type_safe) ~baseline:(B.of_findings findings)
      findings
  in
  check Alcotest.int "baselined finding tolerated" 0 (List.length r.E.violations);
  check Alcotest.int "but still attributed as forbidden" 1
    (List.length (List.filter (fun a -> a.E.forbidden) r.E.attributed))

let test_reconcile_lock_violation () =
  let findings = lint_snippet "let f l = Klock.acquire l; compute l\n" in
  check ids "unbalanced acquire found" [ "R3" ] (rule_ids findings);
  check Alcotest.int "data-race forbidden at ownership-safe" 1
    (List.length (violations Level.Ownership_safe findings));
  check Alcotest.int "tolerated at type-safe (races not yet claimed)" 0
    (List.length (violations Level.Type_safe findings))

let test_parse_error_reported () =
  let root = Filename.temp_dir "klint_test" "" in
  let rel = "lib/fixture/broken.ml" in
  mkdir_p (Filename.concat root "lib/fixture");
  let oc = open_out_bin (Filename.concat root rel) in
  output_string oc "let = (\n";
  close_out oc;
  match E.lint_file ~root rel with
  | Ok _ -> Alcotest.fail "garbage parsed?"
  | Error _ -> ()

(* Baseline -------------------------------------------------------------- *)

let test_baseline_roundtrip () =
  let findings =
    lint_snippet
      "let f d = Ksim.Dyn.cast_exn key d\n\
       let g b = Bytes.unsafe_get b 0\n\
       let h t = ignore (submit_write t 0 data)\n"
  in
  check ids "three rules fire" [ "R1"; "R4"; "R5" ] (rule_ids findings);
  let base = B.of_findings findings in
  (match B.of_string (B.to_string base) with
  | Ok base' -> check Alcotest.bool "to_string/of_string round-trip" true (base = base')
  | Error msg -> Alcotest.fail msg);
  (* stable ordering: shuffled input renders identically *)
  check Alcotest.string "order independent of input order" (B.to_string base)
    (B.to_string (B.of_findings (List.rev findings)));
  List.iter (fun f -> check Alcotest.bool "mem" true (B.mem base f)) findings;
  check Alcotest.int "nothing stale" 0 (List.length (B.stale base findings));
  (* fix one finding: its entry is reported as ratchet progress *)
  let fixed = List.filter (fun f -> f.F.rule <> F.R1_unchecked_cast) findings in
  check Alcotest.int "fixed entry is stale" 1 (List.length (B.stale base fixed))

(* ktcb: frame confinement (R12-R14) and the TCB metric ------------------ *)

module K = Klint.Ktcb
module Fr = Klint.Frame

let ktcb_ids (k : K.result) = List.map (fun f -> F.rule_id f.F.rule) k.K.findings

let test_ktcb_r12_direct () =
  (* Direct Dyn access from a service module: R12, kept out of the
     ladder findings — its ratchet is tcb.baseline, not klint.baseline. *)
  let _, tree =
    lint_tree_fixture
      [ ("lib/fixture/svc.ml", "let lookup key d = Ksim.Dyn.project key d\n") ]
  in
  let k = tree.E.ktcb in
  check ids "direct Dyn use is R12" [ "R12" ] (ktcb_ids k);
  check Alcotest.string "in the service file" "lib/fixture/svc.ml"
    (List.hd k.K.findings).F.file;
  check Alcotest.bool "ktcb findings stay out of the ladder findings" false
    (List.exists (fun f -> f.F.rule = F.R12_unsafe_primitive) tree.E.findings);
  (* the same code *inside* the frame is the frame's business *)
  let _, frame_tree =
    lint_tree_fixture
      [ ("lib/ksim/helper.ml", "let lookup key d = Ksim.Dyn.project key d\n") ]
  in
  check ids "frame-internal use is allowed" [] (ktcb_ids frame_tree.E.ktcb);
  let row = List.find (fun r -> r.K.in_frame) frame_tree.E.ktcb.K.rows in
  check Alcotest.int "every frame line counts as unsafe TCB" row.K.loc row.K.unsafe_loc

let test_ktcb_r13_depth2 () =
  (* Laundering: a helper wraps the raw primitive, a user calls the
     helper, a second hop calls the user.  R12 prices the primitive's
     use site once; every hop of the laundering chain is R13. *)
  let _, tree =
    lint_tree_fixture
      [
        ("lib/fixture/helper.ml", "let steal key d = Ksim.Dyn.project key d\n");
        ( "lib/fixture/user.ml",
          "let get key d = Helper.steal key d\nlet top key d = get key d\n" );
      ]
  in
  let k = tree.E.ktcb in
  let in_file rel rule =
    List.length
      (List.filter
         (fun (f : F.t) -> String.equal f.F.file rel && f.F.rule = rule)
         k.K.findings)
  in
  check Alcotest.int "R12 at the primitive" 1
    (in_file "lib/fixture/helper.ml" F.R12_unsafe_primitive);
  check Alcotest.int "R13 at both laundering hops" 2
    (in_file "lib/fixture/user.ml" F.R13_frame_bypass);
  check Alcotest.int "no R13 where R12 already priced" 0
    (in_file "lib/fixture/helper.ml" F.R13_frame_bypass)

let test_ktcb_r13_frame_surface () =
  (* Resolving into the frame is fine through blessed modules only: an
     unexported frame helper is a bypass even with no raw primitive in
     sight. *)
  let _, tree =
    lint_tree_fixture
      [
        ("lib/ksim/errno.ml", "let eio = 5\n");
        ("lib/ksim/rawhelp.ml", "let poke b = b\n");
        ( "lib/fixture/user.ml",
          "let ok () = Errno.eio\nlet bad b = Rawhelp.poke b\n" );
      ]
  in
  let k = tree.E.ktcb in
  check ids "only the unexported helper is a bypass" [ "R13" ] (ktcb_ids k);
  let f = List.hd k.K.findings in
  check Alcotest.string "flagged in the caller" "lib/fixture/user.ml" f.F.file;
  check Alcotest.string "at the laundering function" "User.bad" f.F.func

let test_ktcb_r14_unsound_export () =
  (* A blessed frame function whose result is a fresh owned object: fine
     consumed frame-internally, R14 once a service can reach it. *)
  let frame = "(** @returns_owned *)\nlet snapshot () = make_raw ()\n" in
  let _, bad =
    lint_tree_fixture
      [
        ("lib/ksim/hist.ml", frame);
        ("lib/fixture/user.ml", "let get () = Hist.snapshot ()\n");
      ]
  in
  check ids "owned raw capability escapes the frame" [ "R14" ] (ktcb_ids bad.E.ktcb);
  check Alcotest.string "flagged at the frame definition" "lib/ksim/hist.ml"
    (List.hd bad.E.ktcb.K.findings).F.file;
  let _, good =
    lint_tree_fixture
      [
        ("lib/ksim/hist.ml", frame);
        ("lib/ksim/other.ml", "let get () = Hist.snapshot ()\n");
      ]
  in
  check ids "frame-internal consumption is clean" [] (ktcb_ids good.E.ktcb)

let test_ktcb_baseline_ratchet () =
  let module C = Klint.Baseline.Counts in
  let e rule file count = { C.b_rule = rule; b_file = file; b_count = count } in
  let base =
    List.sort C.compare_entry
      [
        e F.R12_unsafe_primitive "lib/kfs/memfs_unsafe.ml" 2;
        e F.R13_frame_bypass "lib/knet/amp.ml" 1;
      ]
  in
  (match C.of_string (C.to_string ~header:K.baseline_header base) with
  | Ok base' -> check Alcotest.bool "to_string/of_string round-trip" true (base = base')
  | Error msg -> Alcotest.fail msg);
  (match C.of_string "R99 lib/foo.ml 1\n" with
  | Ok _ -> Alcotest.fail "unknown rule id parsed?"
  | Error _ -> ());
  (* counts, not lines: one more finding in a priced file is a
     regression, a vanished entry is ratchet progress *)
  let current = [ e F.R12_unsafe_primitive "lib/kfs/memfs_unsafe.ml" 3 ] in
  let regressions, progress = C.compare_counts ~baseline:base current in
  (match regressions with
  | [ r ] ->
      check Alcotest.int "regression live count" 3 r.C.d_have;
      check Alcotest.int "regression grandfathered count" 2 r.C.d_allowed
  | _ -> Alcotest.fail "expected exactly one regression");
  (match progress with
  | [ p ] -> check Alcotest.string "vanished entry is progress" "lib/knet/amp.ml" p.C.d_file
  | _ -> Alcotest.fail "expected exactly one progress entry");
  (* identical counts are neither growth nor progress *)
  let regressions, progress = C.compare_counts ~baseline:base base in
  check Alcotest.int "self-compare: no regressions" 0 (List.length regressions);
  check Alcotest.int "self-compare: no progress" 0 (List.length progress)

let test_ktcb_runtime_reconciliation () =
  (* Attribution for the runtime reconciliations: a frame-free module
     that creates a lock class and owns a heap is UNSOUND the moment
     runtime traffic lands on it; priced modules are covered. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/locker.ml",
          "let l = Ksim.Klock.create ~name:\"fix_lock\" ()\n" );
        ("lib/fixture/svc.ml", "let f key d = Ksim.Dyn.project key d\n");
      ]
  in
  let k = tree.E.ktcb in
  let pairs = Alcotest.(list (pair string string)) in
  check pairs "lock creator attributed to its file"
    [ ("fix_lock", "lib/fixture/locker.ml") ]
    k.K.lock_creators;
  check pairs "runtime edge on a frame-free class is unsound"
    [ ("fix_lock", "lib/fixture/locker.ml") ]
    (K.unsound_lock_edges ~result:k ~static_classes:[] [ ("fix_lock", "other_lock") ]);
  check pairs "statically known class is covered" []
    (K.unsound_lock_edges ~result:k ~static_classes:[ "fix_lock" ]
       [ ("fix_lock", "other_lock") ]);
  let files = [ "lib/fixture/locker.ml"; "lib/fixture/svc.ml" ] in
  let ev heap = { Klint.Kown.kind = "leak"; heap; site = "s"; count = 1 } in
  (match K.unsound_kmem_events ~files ~result:k [ ev "locker" ] with
  | [ (_, file) ] ->
      check Alcotest.string "heap event attributed to the frame-free file"
        "lib/fixture/locker.ml" file
  | other -> Alcotest.fail (Fmt.str "expected one unsound event, got %d" (List.length other)));
  check Alcotest.int "the priced module's events are covered" 0
    (List.length (K.unsound_kmem_events ~files ~result:k [ ev "svc" ]));
  check Alcotest.int "a scratch heap with no module is skipped" 0
    (List.length (K.unsound_kmem_events ~files ~result:k [ ev "scratch" ]))

(* kdur: barrier discipline and durability ordering (R16-R18) ------------ *)

module D = Klint.Kdur

let kdur_ids (d : D.result) = List.map (fun f -> F.rule_id f.F.rule) d.D.findings

let test_kdur_r16_read_back () =
  (* ALICE's ordering bug: write, read the volatile content back, write a
     dependent block — R16 without a barrier, clean with one. *)
  let src flushed =
    "let ( let* ) = Result.bind\n\
     let chained io a =\n\
    \  let* () = io.Kblock.Io.write 1 a in\n\
    \  let* prev = io.Kblock.Io.read 1 in\n"
    ^ (if flushed then "  let* () = io.Kblock.Io.flush () in\n" else "")
    ^ "  let* () = io.Kblock.Io.write 2 prev in\n\
      \  Ok ()\n"
  in
  let _, bad = lint_tree_fixture [ ("lib/fixture/log.ml", src false) ] in
  check ids "dependent write on a read-back is R16" [ "R16" ] (kdur_ids bad.E.kdur);
  let f = List.hd bad.E.kdur.D.findings in
  check Alcotest.string "at the dependent write" "Log.chained" f.F.func;
  check Alcotest.bool "ladder findings stay separate" false
    (List.exists (fun f -> f.F.rule = F.R16_unordered_write) bad.E.findings);
  let _, good = lint_tree_fixture [ ("lib/fixture/log.ml", src true) ] in
  check ids "an intervening barrier clears the taint" [] (kdur_ids good.E.kdur)

let test_kdur_r16_match_bind () =
  (* The same read-back through a [match] instead of [let*]: the case
     pattern binds the volatile payload, and a barrier before the
     dependent write clears it. *)
  let src flushed =
    "let chained io a =\n\
    \  let _ = io.Kblock.Io.write 1 a in\n\
    \  match io.Kblock.Io.read 1 with\n\
    \  | Error _ -> ()\n\
    \  | Ok prev ->\n"
    ^ (if flushed then "    let _ = io.Kblock.Io.flush () in\n" else "")
    ^ "    ignore (io.Kblock.Io.write 2 prev)\n"
  in
  let _, bad = lint_tree_fixture [ ("lib/fixture/log.ml", src false) ] in
  check ids "match-bound read-back is R16" [ "R16" ] (kdur_ids bad.E.kdur);
  let _, good = lint_tree_fixture [ ("lib/fixture/log.ml", src true) ] in
  check ids "a barrier in the Ok case clears it" [] (kdur_ids good.E.kdur)

let test_kdur_r16_derived_taint () =
  (* Taint flows through derivation: a binding computed from a volatile
     payload is as volatile as the payload. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/log.ml",
          "let ( let* ) = Result.bind\n\
           let stamp io a =\n\
          \  let* () = io.Kblock.Io.write 1 a in\n\
          \  let tagged = Bytes.cat a a in\n\
          \  io.Kblock.Io.write 2 tagged\n" );
      ]
  in
  check ids "derived payload is R16" [ "R16" ] (kdur_ids tree.E.kdur)

let test_kdur_r17_durable_ack () =
  (* The @durable contract: Ok while the device is still volatile is the
     missing-barrier journal mutant's signature. *)
  let src ~annot ~flushed =
    "let ( let* ) = Result.bind\n"
    ^ (if annot then "(** @durable *)\n" else "")
    ^ "let commit io b =\n\
      \  let* () = io.Kblock.Io.write 0 b in\n"
    ^ (if flushed then "  let* () = io.Kblock.Io.flush () in\n" else "")
    ^ "  Ok ()\n"
  in
  let _, bad = lint_tree_fixture [ ("lib/fixture/jnl.ml", src ~annot:true ~flushed:false) ] in
  check ids "volatile Ok under @durable is R17" [ "R17" ] (kdur_ids bad.E.kdur);
  (* >=: the parser attaches a doc comment to both neighbouring items, so
     the ( let* ) binding above can pick the contract up too *)
  check Alcotest.bool "the contract is counted" true (bad.E.kdur.D.durable_funcs >= 1);
  let _, good = lint_tree_fixture [ ("lib/fixture/jnl.ml", src ~annot:true ~flushed:true) ] in
  check ids "a barrier before the ack discharges it" [] (kdur_ids good.E.kdur);
  let _, plain = lint_tree_fixture [ ("lib/fixture/jnl.ml", src ~annot:false ~flushed:false) ] in
  check ids "without the contract a volatile return is legal" []
    (kdur_ids plain.E.kdur)

let test_kdur_r17_omitted_optional () =
  (* A call that leaves an optional argument out is a full call, not a
     closure: the callee's write is still volatile at the @durable ack. *)
  let dev_ml = "let put ?(blkno = 0) io b = io.Kblock.Io.write blkno b\n" in
  let jnl_ml ~flushed =
    "let ( let* ) = Result.bind\n\
     (** @durable *)\n\
     let commit io b =\n\
    \  let* () = Dev.put io b in\n"
    ^ (if flushed then "  let* () = io.Kblock.Io.flush () in\n" else "")
    ^ "  Ok ()\n"
  in
  let tree ~flushed =
    snd
      (lint_tree_fixture
         [ ("lib/fixture/dev.ml", dev_ml); ("lib/fixture/jnl.ml", jnl_ml ~flushed) ])
  in
  check ids "the omitted optional still writes: R17" [ "R17" ] (kdur_ids (tree ~flushed:false).E.kdur);
  check ids "a barrier before the ack discharges it" [] (kdur_ids (tree ~flushed:true).E.kdur)

let test_kdur_r18_obligation_dropped () =
  (* Interprocedural: a callee re-exports its flush obligation
     (@orders_after); a wrapper that forwards it while stating no
     contract of its own loses the obligation at the boundary. *)
  let log_ml =
    "(** Volatile append; the caller keeps the flush obligation.\n\
    \    @orders_after: t *)\n\
     let append t data = t.Kblock.Io.write 1 data\n"
  in
  let wrap body = [ ("lib/fixture/log.ml", log_ml); ("lib/fixture/wrap.ml", body) ] in
  let _, bad = lint_tree_fixture (wrap "let forward t data = Log.append t data\n") in
  check ids "silent forwarding drops the obligation" [ "R18" ] (kdur_ids bad.E.kdur);
  let f = List.hd bad.E.kdur.D.findings in
  check Alcotest.string "flagged at the wrapper" "lib/fixture/wrap.ml" f.F.file;
  check Alcotest.string "in the forwarding function" "Wrap.forward" f.F.func;
  let _, declared =
    lint_tree_fixture
      (wrap "(** @orders_after: t *)\nlet forward t data = Log.append t data\n")
  in
  check ids "re-exporting the contract discharges it" [] (kdur_ids declared.E.kdur);
  let _, flushed =
    lint_tree_fixture
      (wrap
         "let ( let* ) = Result.bind\n\
          let forward t data =\n\
         \  let* _ = Log.append t data in\n\
         \  t.Kblock.Io.flush ()\n")
  in
  check ids "a barrier in the wrapper discharges it" [] (kdur_ids flushed.E.kdur);
  (* annotation beats inference: a callee contracted @flushes is a full
     barrier even when doc and attribute forms disagree — the union is
     taken and the stronger contract wins at the call site *)
  let _, mixed =
    lint_tree_fixture
      [
        ( "lib/fixture/log.ml",
          "(** @orders_after: t *)\n\
           let append t data = t.Kblock.Io.write 1 data [@@flushes \"t\"]\n" );
        ("lib/fixture/wrap.ml", "let forward t data = Log.append t data\n");
      ]
  in
  check ids "a flushing callee leaves nothing to forward" [] (kdur_ids mixed.E.kdur)

let test_kdur_baseline_roundtrip () =
  (* dur.baseline rides the shared Counts engine: save/load round-trip
     and the regression/progress split. *)
  let module C = Klint.Baseline.Counts in
  let e rule file count = { C.b_rule = rule; b_file = file; b_count = count } in
  let base =
    (* pre-sorted (file, then rule): load returns sorted entries *)
    [
      e F.R17_ack_before_durable "lib/kblock/journal.ml" 2;
      e F.R16_unordered_write "lib/kfs/rawlog_unsafe.ml" 2;
    ]
  in
  let path = Filename.temp_file "dur_baseline" ".txt" in
  C.save ~header:D.baseline_header path base;
  (match C.load path with
  | Ok loaded -> check Alcotest.bool "save/load round-trip" true (loaded = base)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path;
  let current =
    [
      e F.R16_unordered_write "lib/kfs/rawlog_unsafe.ml" 3;
      e F.R17_ack_before_durable "lib/kblock/journal.ml" 1;
    ]
  in
  let regressions, progress = C.compare_counts ~baseline:base current in
  (match regressions with
  | [ r ] ->
      check Alcotest.string "one regression, in the grown file" "lib/kfs/rawlog_unsafe.ml"
        r.C.d_file;
      check Alcotest.int "live count" 3 r.C.d_have;
      check Alcotest.int "grandfathered count" 2 r.C.d_allowed
  | _ -> Alcotest.fail "expected exactly one regression");
  match progress with
  | [ p ] -> check Alcotest.int "the shrunk file is progress" 1 p.C.d_have
  | _ -> Alcotest.fail "expected exactly one progress entry"

let test_kdur_wcache_reconciliation () =
  (* The runtime closure: caches attribute to linted files by module
     basename, and a violation survives only when its file has no static
     R16 at all. *)
  let files = [ "lib/kfs/rawlog_unsafe.ml"; "lib/kblock/wcache.ml" ] in
  let ev cache = { D.cache; v_blkno = 1; v_read_seq = 1; v_write_blkno = 2; v_write_seq = 2 } in
  let r16 =
    {
      F.rule = F.R16_unordered_write;
      file = "lib/kfs/rawlog_unsafe.ml";
      line = 1;
      col = 0;
      func = "f";
      message = "";
    }
  in
  check Alcotest.int "a statically flagged file is covered" 0
    (List.length
       (D.unflagged_wcache_violations ~files ~findings:[ r16 ] [ ev "rawlog_unsafe" ]));
  (match
     D.unflagged_wcache_violations ~files ~findings:[]
       [ ev "rawlog_unsafe"; ev "rawlog_unsafe" ]
   with
  | [ (cache, file, n) ] ->
      check Alcotest.string "uncovered cache survives" "rawlog_unsafe" cache;
      check Alcotest.string "attributed to its file" "lib/kfs/rawlog_unsafe.ml" file;
      check Alcotest.int "aggregated" 2 n
  | other -> Alcotest.failf "expected one unsound cache, got %d" (List.length other));
  check Alcotest.int "a cache naming no linted file is skipped" 0
    (List.length (D.unflagged_wcache_violations ~files ~findings:[] [ ev "wc" ]));
  check Alcotest.int "a mechanism-file cache is skipped by design" 0
    (List.length (D.unflagged_wcache_violations ~files ~findings:[] [ ev "wcache" ]))

(* Annotation grammar edge cases ----------------------------------------- *)

let test_annot_forms_and_merge () =
  (* Doc-comment and attribute forms on the same binding union; the .mli
     val's contract merges in on top. *)
  let root, _ =
    lint_tree_fixture
      [
        ( "lib/fixture/ann.ml",
          "(** @flushes: a *)\n\
           let f x = x [@@flushes \"b\"]\n\
           let g x = x [@@durable]\n\
           let h x = x\n" );
        ( "lib/fixture/ann.mli",
          "(** @orders_after: t *)\n\
           val f : 'a -> 'a\n\n\
           val g : 'a -> 'a\n\n\
           (** @durable *)\n\
           val h : 'a -> 'a\n" );
      ]
  in
  let files =
    List.filter_map
      (fun rel ->
        match Klint.Kparse.parse (Filename.concat root rel) with
        | Ok s -> Some (rel, s)
        | Error _ -> None)
      [ "lib/fixture/ann.ml" ]
  in
  let cg = Klint.Callgraph.build ~root files in
  let annot name =
    (List.find (fun f -> String.equal (Klint.Callgraph.name f) name)
       cg.Klint.Callgraph.funcs)
      .Klint.Callgraph.annot
  in
  check ids "doc and attribute forms union" [ "a"; "b" ] (annot "Ann.f").Klint.Annot.flushes;
  check ids "mli contract merges on top" [ "t" ] (annot "Ann.f").Klint.Annot.orders_after;
  check Alcotest.bool "attribute boolean form" true (annot "Ann.g").Klint.Annot.durable;
  check Alcotest.bool "mli-only boolean contract" true (annot "Ann.h").Klint.Annot.durable

let test_annot_unknown_marker_diagnostics () =
  (* The typo'd @must_hol that would silently weaken a contract is
     diagnosable; odoc's own tags and plain prose stay quiet. *)
  check ids "typo'd marker diagnosed" [ "@must_hol" ]
    (Klint.Annot.unknown_markers
       "Updates the size.\n@must_hol: i_lock\n@param n the new size\n@flushes: h\n");
  check ids "odoc tags and known markers stay quiet" []
    (Klint.Annot.unknown_markers
       "@see <url> docs\n@return the size\n@durable\n@orders_after: t\n");
  check ids "emails are not markers" []
    (Klint.Annot.unknown_markers "Contact dev@example.com about this.\n")

(* The shared fixpoint ---------------------------------------------------- *)

(* Round-robin, the algorithm [Fixpoint.solve] replaced: every item once
   per round, in order, until a round writes nothing, then a separate
   reporting walk under the settled table.  Returns the bindings, what
   the reporting walk emitted, and the evaluations before it. *)
let round_robin ~equal ~default ?(seed = []) ~key ~step items =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) seed;
  let lookup k = Option.value ~default (Hashtbl.find_opt tbl k) in
  let evaluations = ref 0 in
  let rec round n =
    if n > List.length items + 1 then Alcotest.fail "round-robin did not settle";
    let write wrote item =
      incr evaluations;
      let v = step ~emit:ignore lookup item in
      if equal v (lookup (key item)) then wrote
      else (Hashtbl.replace tbl (key item) v; true)
    in
    if List.fold_left write false items then round (n + 1)
  in
  round 1;
  let report item =
    let out = ref [] in
    ignore (step ~emit:(fun o -> out := o :: !out) lookup item);
    List.rev !out
  in
  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [], List.concat_map report items, !evaluations)

(* Random monotone systems over 4-bit sets (1-bit: boolean or).  Item
   [id] writes [key]; [deps] may name keys no item writes, which then
   keep their seed or default.  An item reads its own key whenever that
   key is shared, and a union item whenever it is seeded, so every write
   moves its fact one way and the fixpoint does not depend on the order:
   a union system only grows, and an intersection system seeds every
   item key with top and only shrinks from there. *)
type system_item = { id : int; key : int; own : bool; deps : int list; const : int }

let gen_system =
  let open QCheck2.Gen in
  let* inter = bool and* width = oneofl [ 1; 4 ] and* n = int_range 1 12 in
  let top = (1 lsl width) - 1 in
  let* nkeys = int_range 1 n in
  let* keys = list_repeat n (int_range 0 (nkeys - 1)) in
  let* seed = list_size (int_range 0 4) (pair (int_range 0 (nkeys + 2)) (int_range 0 top)) in
  let seed =
    (if inter then List.init nkeys (fun k -> (k, top)) else [])
    @ List.filter (fun (k, _) -> k >= nkeys || not inter) seed
  in
  let shared k = List.length (List.filter (Int.equal k) keys) > 1 in
  let seeded k = List.mem_assoc k seed in
  let* items =
    flatten_l
      (List.mapi
         (fun id key ->
           let* own = bool
           and* deps = list_size (int_range 0 4) (int_range 0 (nkeys + 2))
           and* const = int_range 0 top in
           return
             { id; key; own = own || shared key || ((not inter) && seeded key); deps; const })
         keys)
  in
  let* order = shuffle_l items in
  return (inter, top, seed, order)

let print_system (inter, top, seed, items) =
  Fmt.str "%s top=%d seed=[%s] items=[%s]"
    (if inter then "inter" else "union")
    top
    (String.concat "; " (List.map (fun (k, v) -> Fmt.str "%d:%d" k v) seed))
    (String.concat "; "
       (List.map
          (fun i ->
            Fmt.str "#%d k%d%s<-[%s]|%d" i.id i.key
              (if i.own then "+own" else "")
              (String.concat "," (List.map string_of_int i.deps))
              i.const)
          items))

let system_step (inter, top) ~emit get i =
  let v =
    if inter then
      (if i.own then get i.key else top)
      land (i.const lor List.fold_left (fun acc d -> acc land get d) top i.deps)
    else
      List.fold_left (fun acc d -> acc lor get d) (if i.own then get i.key else 0) i.deps
      lor i.const
  in
  emit (i.id, v);
  v

(* [None] when [Fixpoint.solve] returns round-robin's bindings and
   reporting walk's outputs, in no more evaluations. *)
let round_robin_mismatch (inter, top, seed, items) =
  let step = system_step (inter, top) and key i = i.key in
  let want, want_emitted, rr_evaluations =
    round_robin ~equal:Int.equal ~default:0 ~seed ~key ~step items
  in
  let _, got, emitted, stats =
    Klint.Fixpoint.solve ~pass:"random" ~equal:Int.equal ~default:0 ~seed ~key ~step items
  in
  if List.sort compare got <> List.sort compare want then Some "bindings differ"
  else if emitted <> want_emitted then Some "emitted outputs differ"
  else if stats.Klint.Fixpoint.evaluations > rr_evaluations then
    Some (Fmt.str "%d evaluations, round-robin needs %d" stats.Klint.Fixpoint.evaluations
            rr_evaluations)
  else None

let test_fixpoint_matches_round_robin =
  QCheck2.Test.make ~name:"worklist solves what round-robin solves" ~count:2000
    ~print:print_system gen_system (fun sys ->
      match round_robin_mismatch sys with
      | None -> true
      | Some why -> QCheck2.Test.fail_reportf "%s on %s" why (print_system sys))

let test_fixpoint_item_order () =
  (* The property's rare case for the drain order: a FIFO queue takes
     19 evaluations here, where round-robin takes 18, because items
     re-queued out of list order miss facts written later in the sweep. *)
  let item id key own deps const = { id; key; own; deps; const } in
  let sys =
    ( true,
      15,
      [ (0, 15); (1, 15); (2, 15) ],
      [
        item 1 2 true [ 0; 1 ] 0;
        item 5 1 true [ 2 ] 0;
        item 0 1 true [] 0;
        item 3 2 true [ 0; 3 ] 1;
        item 2 0 false [ 0; 3; 0 ] 0;
        item 4 1 true [ 0 ] 1;
      ] )
  in
  check Alcotest.(option string) "as round-robin, in no more evaluations" None
    (round_robin_mismatch sys)

(* kown and kdur through the reference: a round-robin solve of the same
   summaries over the same restricted graph, then one reporting walk —
   the pipeline the worklist replaced.  kdur is not monotone, so this is
   checked, not assumed. *)
let check_against_round_robin ~root (tree : E.tree_result) =
  let _, parsed, _ = Klint.Kparse.tree ~root in
  let cg = Klint.Callgraph.build ~root parsed in
  let reference ~excluded ~equal ~default summarize =
    let cg = Klint.Callgraph.restrict cg ~keep:(fun rel -> not (excluded rel)) in
    let summaries, findings, _ =
      round_robin ~equal ~default ~key:Klint.Callgraph.name ~step:(summarize cg)
        cg.Klint.Callgraph.funcs
    in
    (List.sort (fun (a, _) (b, _) -> String.compare a b) summaries, F.sort findings)
  in
  let pp_findings = List.map (Fmt.str "%a" F.pp) in
  let check_summaries what show want got =
    check ids what (List.map show want) (List.map show got)
  in
  let module O = Klint.Ownset in
  let want_sums, want_findings =
    reference ~excluded:Klint.Kown.excluded ~equal:O.summary_equal ~default:O.empty_summary
      (fun cg ~emit -> O.summarize ~emit cg)
  in
  check_summaries "kown summaries"
    (fun (name, (s : O.summary)) ->
      Fmt.str "%s consumes=%s owned=%b" name
        (String.concat "," (O.SS.elements s.O.consumes))
        s.O.returns_owned)
    want_sums tree.E.kown.Klint.Kown.summaries;
  check ids "kown findings" (pp_findings want_findings)
    (pp_findings tree.E.kown.Klint.Kown.findings);
  let module S = Klint.Durset in
  let want_sums, want_findings =
    reference ~excluded:D.excluded ~equal:S.summary_equal ~default:S.empty_summary
      (fun cg ~emit -> S.summarize ~emit cg)
  in
  check_summaries "kdur summaries"
    (fun (name, (s : S.summary)) ->
      Fmt.str "%s clean=%b dirty=%b writes=%b flushes=%b" name s.S.out_clean s.S.out_dirty
        s.S.writes s.S.flushes)
    want_sums tree.E.kdur.D.summaries;
  check ids "kdur findings" (pp_findings want_findings) (pp_findings tree.E.kdur.D.findings)

(* A [let rec] chain [c1 -> c2 -> ... -> cn] written caller first, so a
   fact moves one hop per round-robin round: a pass that gave up after a
   fixed number of rounds would miss what the last hop does. *)
let deep_chain ~params ~last n =
  String.concat "\n"
    (List.init n (fun i ->
         let i = i + 1 in
         Fmt.str "%s c%d %s = %s"
           (if i = 1 then "let rec" else "and")
           i params
           (if i = n then last else Fmt.str "c%d %s" (i + 1) params)))
  ^ "\n"

(* The worklist re-runs only the readers of a changed fact, so a chain
   costs about two evaluations per item, not one round per hop. *)
let check_two_evaluations_per_item (f : Klint.Fixpoint.stats) =
  check Alcotest.bool
    (Fmt.str "%s: %d evaluations of %d items" f.Klint.Fixpoint.pass
       f.Klint.Fixpoint.evaluations f.Klint.Fixpoint.items)
    true
    (f.Klint.Fixpoint.evaluations <= 2 * f.Klint.Fixpoint.items)

let test_fixpoint_deep_chain_r8 () =
  let root, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/chain.ml",
          deep_chain ~params:"q" ~last:"Ksim.Kmem.free q" 40
          ^ "let user q = c1 q; Ksim.Kmem.read q\n" );
      ]
  in
  check ids "the use after the 40-hop free is R8" [ "R8" ] (rule_ids tree.E.findings);
  check Alcotest.string "in the caller" "Chain.user" (List.hd tree.E.findings).F.func;
  (match tree.E.kown.Klint.Kown.fixpoint with
  | [ f ] -> check_two_evaluations_per_item f
  | _ -> Alcotest.fail "kown runs one fixpoint");
  check_against_round_robin ~root tree

let test_fixpoint_deep_chain_r17 () =
  let root, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/chain.ml",
          "let ( let* ) = Result.bind\n"
          ^ deep_chain ~params:"io b" ~last:"io.Kblock.Io.write 0 b" 40
          ^ "let commit io b =\n\
            \  let* () = c1 io b in\n\
            \  Ok ()\n\
             [@@durable]\n" );
      ]
  in
  check ids "the ack after the 40-hop write is R17" [ "R17" ] (kdur_ids tree.E.kdur);
  check Alcotest.string "in the durable caller" "Chain.commit"
    (List.hd tree.E.kdur.D.findings).F.func;
  (match tree.E.kdur.D.fixpoint with
  | [ f ] -> check_two_evaluations_per_item f
  | _ -> Alcotest.fail "kdur runs one fixpoint");
  check_against_round_robin ~root tree

let test_fixpoint_diverges_loudly () =
  (* A step that flips its own fact never settles: the solver must raise,
     naming the pass, instead of handing back a table mid-flight. *)
  match
    Klint.Fixpoint.solve ~pass:"flip" ~equal:Bool.equal ~default:false ~key:Fun.id
      ~step:(fun ~emit:_ get k -> not (get k))
      [ "a"; "b" ]
  with
  | _ -> Alcotest.fail "an oscillating fixpoint returned"
  | exception Klint.Fixpoint.Diverged { pass; evaluations } ->
      check Alcotest.string "names the pass" "flip" pass;
      check Alcotest.int "after items * (items + 1) evaluations" 6 evaluations

let test_export_reader () =
  (* One read of the one runtime export: records of every kind
     round-trip from Ksim.Export's writer through klint's reader and
     their pass's decoder, and a missing or empty file, a malformed
     line, an unknown kind or a kind with no records is an error — a
     reconciliation that checked nothing must not pass. *)
  let module K = Klint.Kparse in
  let lockdep = Klint.Kracer.lockdep_edge
  and kmem = Klint.Kown.kmem_event
  and wcache = D.wcache_violation in
  let kinds = [ lockdep.K.kind; kmem.K.kind; wcache.K.kind ] in
  let read write =
    let path = Filename.temp_file "klint_export" ".txt" in
    write path;
    let r = K.read_export ~kinds path in
    Sys.remove path;
    r
  in
  let raw content path =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  let decoded kind rows =
    match K.decode kind rows with Ok l -> l | Error msg -> Alcotest.fail msg
  in
  (match
     read (fun path ->
         Ksim.Export.write path
           [
             ("lockdep", [ "s_lock"; "i_lock:3" ]);
             ("kmem", [ "uaf"; "own_ev"; "site-a"; "2" ]);
             ("wcache", [ "rawlog_unsafe"; "1"; "5"; "2"; "6" ]);
             ("kmem", [ "leak"; "own_ev"; "site-b"; "1" ]);
           ])
   with
  | Ok rows ->
      check
        Alcotest.(list (pair string string))
        "lockdep: held, acquired" [ ("s_lock", "i_lock:3") ] (decoded lockdep rows);
      (match decoded kmem rows with
      | [ a; b ] ->
          check Alcotest.string "first event" "uaf" a.Klint.Kown.kind;
          check Alcotest.int "first count" 2 a.Klint.Kown.count;
          check Alcotest.string "second site" "site-b" b.Klint.Kown.site
      | l -> Alcotest.failf "expected two kmem events, got %d" (List.length l));
      (* the wcache field order: cache, read block and sequence,
         dependent write block and sequence *)
      (match decoded wcache rows with
      | [ v ] ->
          check Alcotest.string "cache" "rawlog_unsafe" v.D.cache;
          check Alcotest.(list int) "blocks and sequences" [ 1; 5; 2; 6 ]
            [ v.D.v_blkno; v.D.v_read_seq; v.D.v_write_blkno; v.D.v_write_seq ]
      | l -> Alcotest.failf "expected one violation, got %d" (List.length l))
  | Error msg -> Alcotest.fail msg);
  let all = "lockdep\ta\tb\nkmem\tuaf\th\ts\t1\nwcache\tc\t1\t5\t2\t6\n" in
  let is_error what ?(says = "") = function
    | Ok _ -> Alcotest.fail (what ^ " accepted")
    | Error msg ->
        check Alcotest.bool (what ^ ": the error says " ^ says) true (contains msg says)
  in
  is_error "an unknown kind" (read (raw (all ^ "lockstat\ta\tb\n")));
  is_error "a file without kmem records" ~says:"no kmem records"
    (read (raw "# comment\nlockdep\ta\tb\n\nwcache\tc\t1\t5\t2\t6\n"));
  is_error "a line with no fields" (read (raw (all ^ "lockdep\n")));
  is_error "a space-separated line" (read (raw (all ^ "lockdep a b\n")));
  is_error "an empty export" ~says:"checked nothing" (read (raw ""));
  is_error "an export of blank lines" (read (raw "\n\n"));
  is_error "a missing export" (K.read_export ~kinds "/nonexistent/export.txt");
  match read (raw (all ^ "wcache\tc\t1\tnope\t2\t6\n")) with
  | Ok rows -> is_error "a non-numeric sequence" ~says:"malformed" (K.decode wcache rows)
  | Error msg -> Alcotest.fail msg

(* The shipped tree ------------------------------------------------------ *)

let with_repo_root f =
  (* dune runs tests from _build/default/test; the dune-project marker is
     only at the real root, so find_root lands on the source tree.  Skip
     quietly when the tree is not on disk (e.g. an installed test). *)
  match Klint.find_root () with
  | Some root when Sys.file_exists (Filename.concat root "lib") -> f root
  | _ -> ()

let test_shipped_tree_clean () =
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      check Alcotest.int "whole tree parses" 0 (List.length tree.E.parse_errors);
      check Alcotest.bool "the exhibits keep their findings" true (tree.E.findings <> []);
      let baseline =
        match B.load (Filename.concat root "klint.baseline") with
        | Ok b -> b
        | Error msg -> Alcotest.fail msg
      in
      let registry =
        Safeos_core.Boot.registry ~loc_of:(fun name -> Klint.registry_loc ~root name) ()
      in
      let r = E.reconcile ~registry ~baseline tree.E.findings in
      check Alcotest.int "shipped tree has no violations" 0 (List.length r.E.violations);
      check Alcotest.int "checked-in baseline is not stale" 0
        (List.length r.E.stale_baseline);
      (* every finding lands in a known subsystem *)
      List.iter
        (fun a -> check Alcotest.bool "attributed" true (a.E.sub <> "unmapped"))
        r.E.attributed;
      (* the report's level histogram is the registry's, verbatim *)
      let json = Klint.Report.to_json ~registry tree r in
      List.iter
        (fun (level, n) ->
          let needle = Fmt.str "%S: %d" (Level.to_string level) n in
          check Alcotest.bool ("level_counts has " ^ needle) true (contains json needle))
        (Safeos_core.Registry.level_counts registry);
      (* and every registered subsystem appears as a per-subsystem row *)
      List.iter
        (fun e ->
          let needle = Fmt.str "\"name\": %S" e.Safeos_core.Registry.name in
          check Alcotest.bool ("subsystem row " ^ needle) true (contains json needle))
        (Safeos_core.Registry.all registry))

let test_fixpoint_shipped_tree_budget () =
  (* Every pass settles within two evaluations per item.  The count is
     deterministic, so it guards the worklist's gain without a clock. *)
  with_repo_root (fun root ->
      List.iter check_two_evaluations_per_item (E.fixpoints (E.lint_tree ~root)))

let test_fixpoint_shipped_tree_round_robin () =
  with_repo_root (fun root -> check_against_round_robin ~root (E.lint_tree ~root))

let test_kown_shipped_exhibits () =
  (* The acceptance pair: every seeded lifetime exhibit in memfs_unsafe
     is flagged (then baselined), and the ownership-safe twin carries
     zero R8–R11 findings. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let has rule =
        List.exists
          (fun f -> String.equal f.F.file "lib/kfs/memfs_unsafe.ml" && f.F.rule = rule)
          tree.E.findings
      in
      check Alcotest.bool "memfs_unsafe dangling store caught (R8)" true
        (has F.R8_use_after_free);
      check Alcotest.bool "memfs_unsafe double free caught (R9)" true (has F.R9_double_free);
      check Alcotest.bool "memfs_unsafe leak arm caught (R10)" true (has F.R10_error_leak);
      let owned_findings =
        List.filter
          (fun f -> String.equal f.F.file "lib/kfs/memfs_owned.ml" && is_own_rule f.F.rule)
          tree.E.findings
      in
      check Alcotest.int "memfs_owned is ownership-clean" 0 (List.length owned_findings))

let test_ktcb_shipped_tree () =
  (* The framekernel acceptance self-lint: on the shipped tree every
     R12/R13 lands in a declared exhibit, no frame export leaks an owned
     capability, the unsafe TCB is a strict minority of the kernel, and
     the checked-in count ratchet matches the live findings exactly. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let k = tree.E.ktcb in
      List.iter
        (fun (f : F.t) ->
          match f.F.rule with
          | F.R12_unsafe_primitive | F.R13_frame_bypass ->
              check Alcotest.bool (f.F.file ^ " is a declared exhibit") true
                (Fr.is_exhibit f.F.file)
          | F.R14_unsound_export ->
              Alcotest.fail ("unsound frame export shipped: " ^ f.F.file)
          | _ -> Alcotest.fail "foreign rule in ktcb findings")
        k.K.findings;
      check Alcotest.bool "the exhibits keep their specimens" true (k.K.findings <> []);
      check Alcotest.bool "memfs_unsafe stays an R12 specimen" true
        (List.exists
           (fun (f : F.t) ->
             f.F.rule = F.R12_unsafe_primitive
             && String.equal f.F.file "lib/kfs/memfs_unsafe.ml")
           k.K.findings);
      check Alcotest.bool "the frame exists" true (k.K.frame_files > 0);
      check Alcotest.bool "the frame surface is measured" true (k.K.surface_vals > 0);
      check Alcotest.bool "unsafe TCB is a strict minority" true
        (k.K.unsafe_loc * 2 < k.K.total_loc);
      let baseline =
        match Klint.Baseline.Counts.load (Filename.concat root "tcb.baseline") with
        | Ok b -> b
        | Error msg -> Alcotest.fail msg
      in
      let regressions, progress =
        Klint.Baseline.Counts.compare_counts ~baseline
          (Klint.Baseline.Counts.of_findings k.K.findings)
      in
      check Alcotest.int "no tcb regressions" 0 (List.length regressions);
      check Alcotest.int "checked-in tcb baseline is not stale" 0 (List.length progress);
      (* runtime heap traffic from the frame's own allocator is priced *)
      let files = Klint.Loc.ml_files_under ~root "lib" in
      let ev = { Klint.Kown.kind = "free"; heap = "kmem"; site = "s"; count = 1 } in
      check Alcotest.int "frame heap traffic is priced" 0
        (List.length (K.unsound_kmem_events ~files ~result:k [ ev ])))

let test_kdur_shipped_tree () =
  (* The durability acceptance self-lint: every R16-R18 on the shipped
     tree lands in a declared exhibit (the journal's ?barriers:false
     ablation paths or the rawlog specimen file), the rawlog exhibit
     keeps one specimen per rule, the annotated write paths are seen as
     contracts, and the checked-in count ratchet matches the live
     findings exactly. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let d = tree.E.kdur in
      check Alcotest.bool "the exhibits keep their findings" true (d.D.findings <> []);
      let exhibits = [ "lib/kblock/journal.ml"; "lib/kfs/rawlog_unsafe.ml" ] in
      List.iter
        (fun (f : F.t) ->
          check Alcotest.bool (f.F.file ^ " is a declared exhibit") true
            (List.mem f.F.file exhibits))
        d.D.findings;
      let rawlog_has rule =
        List.exists
          (fun (f : F.t) ->
            f.F.rule = rule && String.equal f.F.file "lib/kfs/rawlog_unsafe.ml")
          d.D.findings
      in
      check Alcotest.bool "rawlog keeps its R16 specimen" true
        (rawlog_has F.R16_unordered_write);
      check Alcotest.bool "rawlog keeps its R17 specimen" true
        (rawlog_has F.R17_ack_before_durable);
      check Alcotest.bool "rawlog keeps its R18 specimen" true
        (rawlog_has F.R18_barrier_elision);
      check Alcotest.bool "the journal mutant stays convicted" true
        (List.exists
           (fun (f : F.t) -> String.equal f.F.file "lib/kblock/journal.ml")
           d.D.findings);
      (* the annotated write paths registered as contracts *)
      check Alcotest.bool "durable contracts are seen" true (d.D.durable_funcs >= 4);
      check Alcotest.bool "ordering contracts are seen" true (d.D.ordering_funcs >= 2);
      check Alcotest.bool "the tree has flushing functions" true (d.D.flushing_funcs > 0);
      let baseline =
        match Klint.Baseline.Counts.load (Filename.concat root "dur.baseline") with
        | Ok b -> b
        | Error msg -> Alcotest.fail msg
      in
      let regressions, progress =
        Klint.Baseline.Counts.compare_counts ~baseline
          (Klint.Baseline.Counts.of_findings d.D.findings)
      in
      check Alcotest.int "no dur regressions" 0 (List.length regressions);
      check Alcotest.int "checked-in dur baseline is not stale" 0 (List.length progress))

let test_one_callgraph_four_passes () =
  (* The engine builds one callgraph and restricts it per pass; the
     standalone wrappers (what perfbench's traced pass times) build one
     each from their own files.  Both must give the same answer. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let _, parsed, _ = Klint.Kparse.tree ~root in
      check Alcotest.bool "kracer" true (tree.E.kracer = Klint.Kracer.analyze ~root parsed);
      let kown = Klint.Kown.analyze ~root parsed in
      check Alcotest.bool "kown findings and counts" true
        ({ kown with Klint.Kown.summaries = [] }
        = { tree.E.kown with Klint.Kown.summaries = [] });
      check Alcotest.bool "kown summaries" true
        (List.equal
           (fun (a, s) (b, t) -> String.equal a b && Klint.Ownset.summary_equal s t)
           kown.Klint.Kown.summaries tree.E.kown.Klint.Kown.summaries);
      check Alcotest.bool "ktcb" true
        (tree.E.ktcb = K.analyze ~root parsed ~summaries:kown.Klint.Kown.summaries);
      check Alcotest.bool "kdur" true (tree.E.kdur = D.analyze ~root parsed))

let test_loc_derivation () =
  with_repo_root (fun root ->
      match Klint.registry_loc ~root "tcp" with
      | None -> Alcotest.fail "tcp sources missing from the source map"
      | Some n ->
          check Alcotest.bool "tcp has code" true (n > 0);
          let registry =
            Safeos_core.Boot.registry
              ~loc_of:(fun name -> Klint.registry_loc ~root name)
              ()
          in
          (match Safeos_core.Registry.find registry "tcp" with
          | Some e -> check Alcotest.int "registry loc derived from source" n e.Safeos_core.Registry.loc
          | None -> Alcotest.fail "tcp not in the boot registry");
          check (Alcotest.option Alcotest.int) "unknown subsystem has no loc" None
            (Klint.registry_loc ~root "not_a_subsystem"))

(* kverify: the R15 "verified means checked" pass --------------------------- *)

module KV = Klint.Kverify

(* A throwaway registry with one Verified claim and one Type_safe one —
   just enough surface for the R15 predicate. *)
let toy_registry () =
  let r = Safeos_core.Registry.create () in
  let reg name level =
    ignore
      (Safeos_core.Registry.register r ~name ~kind:Safeos_core.Registry.File_system
         ~level
         ~iface:(Safeos_core.Interface.v ~name ~version:1 ~supports:Level.Verified [])
         ~loc:100 ~description:"fixture" ())
  in
  reg "provenfs" Level.Verified;
  reg "plainfs" Level.Type_safe;
  r

let test_kverify_scan_registrations () =
  (* The scanner keys on the literal Kharness.harness ~name ~subsystem
     call shape, wherever the module path puts it. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/reg.ml",
          "let h1 = Kharness.harness ~name:\"provenfs\" ~subsystem:\"provenfs\" packed\n\
           let h2 =\n\
          \  Harness.harness ~subsystem:\"other\" ~name:\"other.crash\" (pack ())\n\
           let not_one = harness_like ~name:\"x\" ~subsystem:\"y\" packed\n\
           let also_not = Kharness.harness ~name:\"z\" (pack ())\n" );
      ]
  in
  let regs = tree.E.kverify.KV.registrations in
  check Alcotest.int "two literal registrations found" 2 (List.length regs);
  let by_name n = List.find (fun r -> r.KV.reg_name = n) regs in
  check Alcotest.string "subsystem captured" "provenfs" (by_name "provenfs").KV.reg_subsystem;
  check Alcotest.string "label order does not matter" "other"
    (by_name "other.crash").KV.reg_subsystem;
  check Alcotest.string "file recorded" "lib/fixture/reg.ml" (by_name "provenfs").KV.reg_file;
  check Alcotest.int "line recorded" 1 (by_name "provenfs").KV.reg_line

let test_kverify_r15_fires_and_clears () =
  let registry = toy_registry () in
  (* no registrations at all: only the Verified claim is flagged *)
  (match KV.r15 ~registry { KV.registrations = [] } with
  | [ f ] ->
      check Alcotest.bool "rule is R15" true (f.F.rule = F.R15_unverified_claim);
      check Alcotest.bool "names the claiming subsystem" true
        (List.exists (fun sub -> sub = "provenfs")
           [ (String.split_on_char ' ' f.F.message |> fun ws -> List.nth ws 1) ]);
      (* Semantic bug class: forbidden exactly at the Verified rung *)
      check Alcotest.bool "violation at Verified" true
        (Level.prevents Level.Verified (F.bug_class f.F.rule));
      check Alcotest.bool "tolerated below Verified" false
        (Level.prevents Level.Ownership_safe (F.bug_class f.F.rule))
  | other -> Alcotest.fail (Fmt.str "expected one R15, got %d" (List.length other)));
  (* a registration for the right subsystem discharges the claim *)
  let covered =
    {
      KV.registrations =
        [ { KV.reg_name = "provenfs"; reg_subsystem = "provenfs";
            reg_file = "lib/x.ml"; reg_line = 1 } ];
    }
  in
  check Alcotest.int "covered claim is silent" 0 (List.length (KV.r15 ~registry covered));
  (* a harness for some *other* subsystem does not count *)
  let misdirected =
    {
      KV.registrations =
        [ { KV.reg_name = "plainfs"; reg_subsystem = "plainfs";
            reg_file = "lib/x.ml"; reg_line = 1 } ];
    }
  in
  check Alcotest.int "harness for another subsystem does not discharge it" 1
    (List.length (KV.r15 ~registry misdirected))

let test_kverify_shipped_tree_covered () =
  (* Every Verified claim in the boot registry must be backed by a
     kharness registration in the shipped sources — R15 on the real tree
     is empty, and stays empty only while that invariant holds. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let registry =
        Safeos_core.Boot.registry ~loc_of:(fun name -> Klint.registry_loc ~root name) ()
      in
      let regs = tree.E.kverify.KV.registrations in
      check Alcotest.bool "kharness registrations found" true (List.length regs >= 3);
      List.iter
        (fun sub ->
          check Alcotest.bool (sub ^ " covered") true
            (List.exists (fun r -> r.KV.reg_subsystem = sub) regs))
        [ "journalfs"; "cowfs" ];
      check Alcotest.int "no unverified Verified claims shipped" 0
        (List.length (KV.r15 ~registry tree.E.kverify));
      (* sanity: breaking the invariant would fire — a registry where
         a subsystem with no harness claims Verified *)
      let broken = toy_registry () in
      check Alcotest.int "an uncovered Verified claim would fire" 1
        (List.length (KV.r15 ~registry:broken tree.E.kverify)))

let test_kverify_coverage_ratchet () =
  let row name sub ops =
    {
      KV.cov_harness = name; cov_subsystem = sub; cov_ops = ops; cov_states = ops + 7;
      cov_crash_points = ops / 4; cov_crash_images = ops / 2; cov_skipped = 1;
      cov_divergences = 0; cov_deepest = -1; cov_fingerprint = "0123456789abcdef";
    }
  in
  let rows = [ row "journalfs" "journalfs" 1000; row "cowfs" "cowfs" 800 ] in
  (* row round-trip through the on-disk line format *)
  List.iter
    (fun r ->
      match KV.row_of_line (KV.row_to_line r) with
      | Some r' -> check Alcotest.bool "row round-trips" true (r = r')
      | None -> Alcotest.fail "row did not parse back")
    rows;
  (match KV.row_of_line "harness x mangled" with
  | Some _ -> Alcotest.fail "mangled row parsed?"
  | None -> ());
  (* file round-trip *)
  let path = Filename.temp_file "kverify" ".coverage" in
  KV.save_coverage path rows;
  (match Klint.Kparse.read_records KV.coverage path with
  | Ok rows' -> check Alcotest.bool "coverage file round-trips" true (rows = rows')
  | Error msg -> Alcotest.fail msg);
  Sys.remove path;
  (* the floor aggregates, round-trips, and ratchets in both directions *)
  let f = KV.floor_of_rows rows in
  check Alcotest.int "floor harness count" 2 f.KV.min_harnesses;
  check Alcotest.int "floor ops sum" 1800 f.KV.min_ops;
  check Alcotest.int "floor crash-image sum" 900 f.KV.min_crash_images;
  (match KV.floor_of_string (KV.floor_to_string f) with
  | Ok f' -> check Alcotest.bool "floor round-trips" true (f = f')
  | Error msg -> Alcotest.fail msg);
  let regressions, progress =
    KV.compare_floor ~baseline:f (KV.floor_of_rows [ row "journalfs" "journalfs" 1000 ])
  in
  check Alcotest.bool "losing a harness regresses" true
    (List.exists (fun (m, _, _) -> m = "harnesses") regressions);
  check Alcotest.bool "fewer ops regress" true
    (List.exists (fun (m, _, _) -> m = "ops") regressions);
  check Alcotest.int "nothing improved" 0 (List.length progress);
  let regressions, progress =
    KV.compare_floor ~baseline:f
      (KV.floor_of_rows (row "micro" "journalfs" 200 :: rows))
  in
  check Alcotest.int "growing coverage is not a regression" 0 (List.length regressions);
  check Alcotest.bool "and is reported as progress" true (List.length progress >= 2)

let test_effective_loc () =
  let src =
    "(* header *)\n\n\
     let x = 1\n\
     (* multi\n\
    \   line (* nested *) comment\n\
    \   still comment *)\n\
     let y = \"(* not a comment *)\"\n"
  in
  check Alcotest.int "comments and blanks do not count" 2 (Klint.Loc.count_string src)

let () =
  Alcotest.run "klint"
    [
      ( "rules",
        [
          Alcotest.test_case "r1 unchecked cast" `Quick test_r1_unchecked_cast;
          Alcotest.test_case "r2 unchecked err-ptr" `Quick test_r2_unchecked_errptr;
          Alcotest.test_case "r3 lock balance" `Quick test_r3_lock_balance;
          Alcotest.test_case "r4 ownership bypass" `Quick test_r4_ownership_bypass;
          Alcotest.test_case "r5 must-check" `Quick test_r5_must_check;
          Alcotest.test_case "r7 annotation mismatch" `Quick test_r7_annotation_mismatch;
          Alcotest.test_case "parse error reported" `Quick test_parse_error_reported;
        ] );
      ( "kracer",
        [
          Alcotest.test_case "r6 through two call hops" `Quick test_kracer_r6_two_hops;
          Alcotest.test_case "annotated chain is clean" `Quick test_kracer_r6_annotated_clean;
          Alcotest.test_case "must_hold checked at call sites" `Quick
            test_kracer_r6_must_hold_call_site;
          Alcotest.test_case "static edges and predicted cycles" `Quick
            test_kracer_static_edges_and_cycles;
          Alcotest.test_case "runtime reconciliation" `Quick test_kracer_runtime_reconciliation;
          Alcotest.test_case "mli-side contracts" `Quick test_kracer_mli_annotation;
        ] );
      ( "kown",
        [
          Alcotest.test_case "r8 across a branch join" `Quick test_kown_r8_branch_join;
          Alcotest.test_case "consumes through two call hops" `Quick
            test_kown_interprocedural_consume;
          Alcotest.test_case "r10 error-path leak" `Quick test_kown_r10_error_path;
          Alcotest.test_case "r10 asymmetric sibling arm" `Quick test_kown_r10_sibling_arm;
          Alcotest.test_case "r11 borrow escapes" `Quick test_kown_r11_borrow_escape;
          Alcotest.test_case "attribute contracts override inference" `Quick
            test_kown_annotations;
          Alcotest.test_case "mli-side ownership contracts" `Quick test_kown_mli_annotation;
          Alcotest.test_case "kmem-event reconciliation" `Quick test_kown_kmem_events;
          Alcotest.test_case "ownership claim reconciliation" `Quick
            test_kown_reconcile_ownership_claim;
          Alcotest.test_case "baseline renumbering goes stale" `Quick
            test_kown_baseline_renumbering;
        ] );
      ( "reconcile",
        [
          Alcotest.test_case "cast under type-safe claim" `Quick test_reconcile_cast_violation;
          Alcotest.test_case "unbalanced lock under ownership claim" `Quick
            test_reconcile_lock_violation;
          Alcotest.test_case "export reader refuses empty input" `Quick test_export_reader;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "40-hop free reaches the caller (r8)" `Quick
            test_fixpoint_deep_chain_r8;
          Alcotest.test_case "40-hop write reaches the durable ack (r17)" `Quick
            test_fixpoint_deep_chain_r17;
          Alcotest.test_case "oscillation raises Diverged" `Quick test_fixpoint_diverges_loudly;
          QCheck_alcotest.to_alcotest test_fixpoint_matches_round_robin;
          Alcotest.test_case "item order, not FIFO" `Quick test_fixpoint_item_order;
          Alcotest.test_case "shipped tree: at most 2 evaluations per item" `Quick
            test_fixpoint_shipped_tree_budget;
          Alcotest.test_case "shipped tree: kown and kdur equal round-robin" `Quick
            test_fixpoint_shipped_tree_round_robin;
        ] );
      ( "baseline",
        [ Alcotest.test_case "round-trip and ratchet" `Quick test_baseline_roundtrip ] );
      ( "ktcb",
        [
          Alcotest.test_case "r12 direct primitive outside the frame" `Quick
            test_ktcb_r12_direct;
          Alcotest.test_case "r13 laundering through two hops" `Quick test_ktcb_r13_depth2;
          Alcotest.test_case "r13 blessed vs unexported frame surface" `Quick
            test_ktcb_r13_frame_surface;
          Alcotest.test_case "r14 owned capability export" `Quick
            test_ktcb_r14_unsound_export;
          Alcotest.test_case "tcb count ratchet round-trip" `Quick
            test_ktcb_baseline_ratchet;
          Alcotest.test_case "runtime reconciliation attribution" `Quick
            test_ktcb_runtime_reconciliation;
        ] );
      ( "kdur",
        [
          Alcotest.test_case "r16 read-back dependent write" `Quick test_kdur_r16_read_back;
          Alcotest.test_case "r16 match-bound read-back" `Quick test_kdur_r16_match_bind;
          Alcotest.test_case "r16 derived taint" `Quick test_kdur_r16_derived_taint;
          Alcotest.test_case "r17 ack before durable" `Quick test_kdur_r17_durable_ack;
          Alcotest.test_case "r17 through a call that omits an optional" `Quick
            test_kdur_r17_omitted_optional;
          Alcotest.test_case "r18 obligation dropped at a wrapper" `Quick
            test_kdur_r18_obligation_dropped;
          Alcotest.test_case "dur count ratchet round-trip" `Quick
            test_kdur_baseline_roundtrip;
          Alcotest.test_case "wcache runtime reconciliation" `Quick
            test_kdur_wcache_reconciliation;
          Alcotest.test_case "annotation forms and mli merge" `Quick
            test_annot_forms_and_merge;
          Alcotest.test_case "unknown-marker diagnostics" `Quick
            test_annot_unknown_marker_diagnostics;
        ] );
      ( "kverify",
        [
          Alcotest.test_case "harness registrations scanned" `Quick
            test_kverify_scan_registrations;
          Alcotest.test_case "r15 fires and clears" `Quick test_kverify_r15_fires_and_clears;
          Alcotest.test_case "shipped Verified claims are covered" `Quick
            test_kverify_shipped_tree_covered;
          Alcotest.test_case "coverage rows, floor, ratchet" `Quick
            test_kverify_coverage_ratchet;
        ] );
      ( "tree",
        [
          Alcotest.test_case "shipped tree is violation-free" `Quick test_shipped_tree_clean;
          Alcotest.test_case "ownership exhibits caught, owned twin clean" `Quick
            test_kown_shipped_exhibits;
          Alcotest.test_case "frame confinement on the shipped tree" `Quick
            test_ktcb_shipped_tree;
          Alcotest.test_case "barrier discipline on the shipped tree" `Quick
            test_kdur_shipped_tree;
          Alcotest.test_case "one callgraph gives the four passes' answers" `Quick
            test_one_callgraph_four_passes;
          Alcotest.test_case "registry loc derived from klint" `Quick test_loc_derivation;
          Alcotest.test_case "effective line counting" `Quick test_effective_loc;
        ] );
    ]
