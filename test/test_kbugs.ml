(* Tests for the bug-analysis machinery: the CWE taxonomy, the calibrated
   corpus, the fault-injection matrix, and the claim cross-check. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* Cwe ---------------------------------------------------------------------- *)

let test_cwe_catalog_well_formed () =
  let ids = List.map (fun c -> c.Kbugs.Cwe.cwe_id) Kbugs.Cwe.catalog in
  check Alcotest.bool "no duplicate ids" true
    (List.length ids = List.length (List.sort_uniq compare ids));
  check Alcotest.bool "non-trivial" true (List.length Kbugs.Cwe.catalog >= 20)

let test_cwe_known_mappings () =
  let prevention id =
    match Kbugs.Cwe.find id with
    | Some cwe -> Kbugs.Cwe.prevention cwe
    | None -> fail (Printf.sprintf "CWE-%d missing" id)
  in
  check Alcotest.bool "UAF -> type/ownership" true (prevention 416 = Kbugs.Cwe.By_type_ownership);
  check Alcotest.bool "NULL deref -> type/ownership" true
    (prevention 476 = Kbugs.Cwe.By_type_ownership);
  check Alcotest.bool "race -> type/ownership" true (prevention 362 = Kbugs.Cwe.By_type_ownership);
  check Alcotest.bool "input validation -> functional" true (prevention 20 = Kbugs.Cwe.By_functional);
  check Alcotest.bool "int overflow -> other" true (prevention 190 = Kbugs.Cwe.Other_cause);
  check Alcotest.bool "info exposure -> other" true (prevention 200 = Kbugs.Cwe.Other_cause)

let test_cwe_every_prevention_inhabited () =
  List.iter
    (fun p ->
      check Alcotest.bool (Kbugs.Cwe.prevention_to_string p) true
        (Kbugs.Cwe.by_prevention p <> []))
    [ Kbugs.Cwe.By_type_ownership; Kbugs.Cwe.By_functional; Kbugs.Cwe.Other_cause ]

(* Corpus ---------------------------------------------------------------------- *)

let test_corpus_total () =
  check Alcotest.int "1475 records" 1475 (List.length (Kbugs.Corpus.records ()));
  check Alcotest.int "sums" Kbugs.Corpus.total
    (Kbugs.Corpus.type_ownership_count + Kbugs.Corpus.functional_count + Kbugs.Corpus.other_count)

let test_corpus_exact_split () =
  let t = Kbugs.Analysis.categorize (Kbugs.Corpus.records ()) in
  check Alcotest.int "type/ownership" 620 t.Kbugs.Analysis.type_ownership;
  check Alcotest.int "functional" 516 t.Kbugs.Analysis.functional;
  check Alcotest.int "other" 339 t.Kbugs.Analysis.other;
  (* The paper's headline percentages. *)
  let pct part = Float.round (Kbugs.Analysis.percent part t.Kbugs.Analysis.total) in
  check (Alcotest.float 0.01) "42%" 42.0 (pct t.Kbugs.Analysis.type_ownership);
  check (Alcotest.float 0.01) "35%" 35.0 (pct t.Kbugs.Analysis.functional);
  check (Alcotest.float 0.01) "23%" 23.0 (pct t.Kbugs.Analysis.other)

let test_corpus_deterministic () =
  let a = Kbugs.Corpus.records () and b = Kbugs.Corpus.records () in
  check Alcotest.bool "memoized/deterministic" true (a == b || a = b)

let test_corpus_years_in_range () =
  List.iter
    (fun (r : Kbugs.Corpus.record) ->
      check Alcotest.bool "2010-2020" true (r.Kbugs.Corpus.year >= 2010 && r.Kbugs.Corpus.year <= 2020))
    (Kbugs.Corpus.records ())

let test_corpus_ids_unique () =
  let ids = List.map (fun (r : Kbugs.Corpus.record) -> r.Kbugs.Corpus.cve_id) (Kbugs.Corpus.records ()) in
  check Alcotest.int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_corpus_component_spread () =
  let by = Kbugs.Corpus.by_component () in
  check Alcotest.bool "several components" true (List.length by >= 5);
  check Alcotest.int "all accounted" 1475 (List.fold_left (fun a (_, n) -> a + n) 0 by)

(* Inject ------------------------------------------------------------------------ *)

let test_every_fault_exhibits_at_stage0 () =
  List.iter
    (fun fault ->
      match Kbugs.Inject.at_stage Safeos_core.Level.Unsafe fault with
      | Kbugs.Inject.Exhibited _ -> ()
      | d ->
          fail
            (Printf.sprintf "%s at unsafe: %s"
               (Kbugs.Inject.fault_to_string fault)
               (Kbugs.Inject.detection_to_string d)))
    Kbugs.Inject.all_faults

let test_type_faults_stop_at_stage2 () =
  List.iter
    (fun fault ->
      check Alcotest.bool (Kbugs.Inject.fault_to_string fault) true
        (Kbugs.Inject.is_stopped (Kbugs.Inject.at_stage Safeos_core.Level.Type_safe fault)))
    [ Kbugs.Inject.F_wrong_cast; Kbugs.Inject.F_missing_errptr_check ]

let test_memory_faults_stop_at_stage3 () =
  List.iter
    (fun fault ->
      check Alcotest.bool (Kbugs.Inject.fault_to_string fault) true
        (Kbugs.Inject.is_stopped (Kbugs.Inject.at_stage Safeos_core.Level.Ownership_safe fault)))
    [ Kbugs.Inject.F_use_after_free; Kbugs.Inject.F_double_free; Kbugs.Inject.F_memory_leak;
      Kbugs.Inject.F_data_race ]

let test_semantic_fault_stops_only_at_stage4 () =
  check Alcotest.bool "exhibited at stage 3" false
    (Kbugs.Inject.is_stopped (Kbugs.Inject.at_stage Safeos_core.Level.Ownership_safe Kbugs.Inject.F_off_by_one));
  match Kbugs.Inject.at_stage Safeos_core.Level.Verified Kbugs.Inject.F_off_by_one with
  | Kbugs.Inject.Detected how ->
      check Alcotest.bool "detection names the monitor" true (String.length how > 0)
  | d -> fail (Kbugs.Inject.detection_to_string d)

let test_matrix_shape () =
  let m = Kbugs.Inject.matrix () in
  check Alcotest.int "nine faults" 9 (List.length m);
  List.iter
    (fun (_, cells) -> check Alcotest.int "four stages" 4 (List.length cells))
    m

let test_transient_io_absorbed_when_protected () =
  (match Kbugs.Inject.trigger_transient_io ~protected:false () with
  | Kbugs.Inject.Exhibited _ -> ()
  | d -> fail ("unprotected: " ^ Kbugs.Inject.detection_to_string d));
  match Kbugs.Inject.trigger_transient_io ~protected:true () with
  | Kbugs.Inject.Detected how ->
      check Alcotest.bool "mentions retries" true (String.length how > 0)
  | d -> fail ("protected: " ^ Kbugs.Inject.detection_to_string d)

(* Each call's verdict comes from its own file system, so it cannot go
   stale however many calls (or other race events) came before it in the
   process. *)
let test_race_verdict_per_call () =
  for i = 1 to 9_000 do
    match Kbugs.Inject.trigger_race () with
    | Kbugs.Inject.Exhibited "2 unlocked i_size accesses" -> ()
    | d -> fail (Printf.sprintf "call %d: %s" i (Kbugs.Inject.detection_to_string d))
  done

let test_claims_upheld () =
  let c = Kbugs.Analysis.check_claims () in
  check Alcotest.bool "some claims" true (c.Kbugs.Analysis.claims_checked > 0);
  check Alcotest.int "all upheld"
    c.Kbugs.Analysis.claims_checked c.Kbugs.Analysis.claims_upheld;
  check Alcotest.(list (pair Alcotest.string Alcotest.string)) "none broken" []
    (List.map
       (fun (f, s) -> (Kbugs.Inject.fault_to_string f, Safeos_core.Level.to_string s))
       c.Kbugs.Analysis.broken)

let test_by_cwe_sums () =
  let by = Kbugs.Analysis.by_cwe (Kbugs.Corpus.records ()) in
  check Alcotest.int "sums to corpus" 1475 (List.fold_left (fun a (_, n) -> a + n) 0 by);
  (* Sorted descending. *)
  let counts = List.map snd by in
  check Alcotest.bool "descending" true (counts = List.sort (fun a b -> compare b a) counts)

let () =
  Alcotest.run "kbugs"
    [
      ( "cwe",
        [
          Alcotest.test_case "catalog well-formed" `Quick test_cwe_catalog_well_formed;
          Alcotest.test_case "known mappings" `Quick test_cwe_known_mappings;
          Alcotest.test_case "all buckets inhabited" `Quick test_cwe_every_prevention_inhabited;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "total 1475" `Quick test_corpus_total;
          Alcotest.test_case "exact 42/35/23 split" `Quick test_corpus_exact_split;
          Alcotest.test_case "deterministic" `Quick test_corpus_deterministic;
          Alcotest.test_case "years in range" `Quick test_corpus_years_in_range;
          Alcotest.test_case "ids unique" `Quick test_corpus_ids_unique;
          Alcotest.test_case "component spread" `Quick test_corpus_component_spread;
        ] );
      ( "inject",
        [
          Alcotest.test_case "all faults exhibit at stage 0" `Quick
            test_every_fault_exhibits_at_stage0;
          Alcotest.test_case "type faults stop at stage 2" `Quick test_type_faults_stop_at_stage2;
          Alcotest.test_case "memory faults stop at stage 3" `Quick
            test_memory_faults_stop_at_stage3;
          Alcotest.test_case "semantic stops only at stage 4" `Quick
            test_semantic_fault_stops_only_at_stage4;
          Alcotest.test_case "matrix shape" `Quick test_matrix_shape;
          Alcotest.test_case "transient io absorbed when protected" `Quick
            test_transient_io_absorbed_when_protected;
          Alcotest.test_case "race verdict holds on every call" `Quick test_race_verdict_per_call;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "claims upheld" `Quick test_claims_upheld;
          Alcotest.test_case "by-cwe sums" `Quick test_by_cwe_sums;
        ] );
    ]
