(* klint driver: lint lib/ against the safety ladder, reconcile with the
   boot registry's level claims, and gate CI — every ratchet and every
   static/runtime reconciliation this run has input for, over one lint.

   Exit codes: 0 clean (or only baselined/permitted findings),
   1 non-baselined violations, ratchet regressions or runtime events the
   static passes missed, 2 operational errors (parse failure, bad
   baseline, missing tree, a fixpoint that did not converge, a
   reconciliation input that is missing, malformed or empty). *)

open Klint

let ( / ) = Filename.concat

(* An operational error: say so and exit 2 on the spot. *)
let fail fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "klint: %s@." msg;
      exit 2)
    fmt

let load what load path =
  match load path with Ok x -> x | Error msg -> fail "bad %s %s: %s" what path msg

(* The three count ratchets — klint.baseline against its HEAD copy,
   tcb.baseline and dur.baseline against the live findings — score the
   same way: a (rule, file) count above [against] fails unless [allow],
   one below it is progress. *)
let count_ratchet ~name ~against ~why ?(allow = false) ~baseline current =
  let regressions, progress = Baseline.Counts.compare_counts ~baseline current in
  if progress <> [] then
    Fmt.pr
      "klint: %s ratchet progress — %d (rule, file) counts below %s; regenerate with \
       --update-baseline@."
      name (List.length progress) against;
  List.iter
    (fun (d : Baseline.Counts.delta) ->
      let delta =
        Fmt.str "%s %s: %d finding(s) > %s %d" (Finding.rule_id d.Baseline.Counts.d_rule)
          d.Baseline.Counts.d_file d.Baseline.Counts.d_have against d.Baseline.Counts.d_allowed
      in
      if allow then Fmt.pr "klint: %s growth (allowed) — %s@." name delta
      else Fmt.epr "klint: %s REGRESSION — %s (%s)@." (String.uppercase_ascii name) delta why)
    regressions;
  if regressions = [] || allow then 0 else 1

let run root_opt report_opt update_baseline verbose runtime_export lock_graph_dot
    refine_coverage baseline_head allow_baseline_growth =
  let root =
    match root_opt with
    | Some r -> r
    | None -> (
        match find_root () with
        | Some r -> r
        | None -> fail "cannot find dune-project above %s (use --root)" (Sys.getcwd ()))
  in
  if not (Sys.file_exists (root / "lib")) then fail "%s has no lib/ to lint" root;
  let report_path =
    match report_opt with Some p -> p | None -> root / "_build" / "klint-report.json"
  in
  (* The reconciliation inputs first: a missing, malformed or empty one
     would check nothing, so it fails before any lint work. *)
  let ok = function Ok r -> r | Error msg -> fail "%s" msg in
  let kinds = [ Kracer.lockdep_edge.kind; Kown.kmem_event.kind; Kdur.wcache_violation.kind ] in
  let export =
    Option.map (fun path -> (path, ok (Kparse.read_export ~kinds path))) runtime_export
  in
  let decode kind =
    Option.map
      (fun (path, rows) ->
        match Kparse.decode kind rows with Ok r -> r | Error msg -> fail "%s: %s" path msg)
      export
  in
  let runtime_edges = Option.map (List.sort_uniq compare) (decode Kracer.lockdep_edge) in
  let kmem_events = decode Kown.kmem_event in
  let wcache_violations = decode Kdur.wcache_violation in
  let refine_rows =
    Option.map (fun path -> ok (Kparse.read_records Kverify.coverage path)) refine_coverage
  in
  (* The same registry the kernel boots with, sized from the tree. *)
  let registry = Safeos_core.Boot.registry ~loc_of:(fun name -> registry_loc ~root name) () in
  let t0 = Unix.gettimeofday () in
  let tree =
    try Engine.lint_tree ~root
    with Fixpoint.Diverged { pass; evaluations } ->
      fail "the %s fixpoint did not converge in %d evaluations; its findings would be partial"
        pass evaluations
  in
  let lint_wall = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (file, msg) -> Fmt.epr "klint: parse error in %s:@.%s@." file msg)
    tree.Engine.parse_errors;
  if tree.Engine.parse_errors <> [] then exit 2;
  let kracer = tree.Engine.kracer and kown = tree.Engine.kown in
  let ktcb = tree.Engine.ktcb and kdur = tree.Engine.kdur in
  let tcb_counts = Baseline.Counts.of_findings ktcb.Ktcb.findings in
  let dur_counts = Baseline.Counts.of_findings kdur.Kdur.findings in
  if update_baseline then begin
    let entries = Baseline.of_findings tree.Engine.findings in
    Baseline.save (root / "klint.baseline") entries;
    Baseline.Counts.save ~header:Ktcb.baseline_header (root / "tcb.baseline") tcb_counts;
    Baseline.Counts.save ~header:Kdur.baseline_header (root / "dur.baseline") dur_counts;
    Option.iter
      (fun rows -> Kverify.save_floor (root / "refine.baseline") (Kverify.floor_of_rows rows))
      refine_rows;
    Fmt.pr "klint: wrote klint.baseline (%d entries), tcb.baseline (%d), dur.baseline (%d)%s@."
      (List.length entries) (List.length tcb_counts) (List.length dur_counts)
      (if refine_rows = None then "" else " and refine.baseline")
  end;
  let baseline = load "baseline" Baseline.load (root / "klint.baseline") in
  (* R15 (unverified-functional-claim) needs the live registry, so it is
     synthesized here and fed through the same reconciliation as the
     per-file rules.  It is deliberately not baselineable: the baseline
     is regenerated from the tree findings alone, so a Verified claim
     without a harness can never be grandfathered in. *)
  let r15_findings = Kverify.r15 ~registry tree.Engine.kverify in
  let all_findings = Finding.sort (tree.Engine.findings @ r15_findings) in
  let r = Engine.reconcile ~registry ~baseline all_findings in
  Report.write ~path:report_path (Report.to_json ~registry ?refine:refine_rows tree r);
  let attributed = r.Engine.attributed in
  if verbose then
    List.iter
      (fun (a : Engine.attributed) ->
        Fmt.pr "%a  [%s@%s%s]@." Finding.pp a.Engine.finding a.Engine.sub
          (Safeos_core.Level.to_string a.Engine.level)
          (if a.Engine.baselined then ", baselined" else ""))
      attributed;
  Fmt.pr "klint: %d files, %d effective lines, %d findings (%d baselined), %d violations@."
    (List.length tree.Engine.files)
    tree.Engine.effective_loc (List.length attributed)
    (List.length (List.filter (fun a -> a.Engine.baselined) attributed))
    (List.length r.Engine.violations);
  if r.Engine.stale_baseline <> [] then
    Fmt.pr "klint: ratchet progress — %d baseline entries no longer fire; regenerate with --update-baseline@."
      (List.length r.Engine.stale_baseline);
  Fmt.pr "klint: report written to %s@." report_path;
  (* The baseline growth ratchet: the line-anchored baseline against its
     HEAD copy, per (rule, file) count, so pure renumbering from unrelated
     edits in the same file is never growth, one more suppressed finding
     in a file always is. *)
  let head_rc =
    match baseline_head with
    | None -> 0
    | Some path ->
        let rc =
          count_ratchet ~name:"baseline" ~against:"HEAD"
            ~why:"fix the findings, or ALLOW_BASELINE_GROWTH=1 to accept"
            ~allow:allow_baseline_growth
            ~baseline:(Baseline.counts (load "head baseline" Baseline.load path))
            (Baseline.counts baseline)
        in
        if rc = 0 then Fmt.pr "klint: baseline did not grow vs %s@." path;
        rc
  in
  Fmt.pr "klint: lock graph — %d functions, %d static edges, %d guard classes@."
    kracer.Kracer.funcs
    (List.length kracer.Kracer.edges)
    (List.length kracer.Kracer.guards);
  List.iter
    (fun cyc ->
      Fmt.pr "klint: PREDICTED DEADLOCK — static lock-order cycle: %s@."
        (String.concat " -> " (cyc @ [ List.hd cyc ])))
    kracer.Kracer.cycles;
  (match lock_graph_dot with
  | Some path ->
      let oc = open_out path in
      output_string oc (Kracer.dot_of_edges kracer.Kracer.edges);
      close_out oc;
      Fmt.pr "klint: lock graph written to %s@." path
  | None -> ());
  (* Static/runtime reconciliation: every lock nesting the tests saw must
     already be in the static graph, otherwise the analysis has a hole. *)
  let lockdep_rc =
    match runtime_edges with
    | None -> 0
    | Some runtime ->
        (* Frame-confinement attribution: a runtime lock class the static
           graph has never seen, created by a module the TCB metric
           classifies as frame-free, is a confinement hole, not just a
           kracer gap. *)
        let static_classes =
          List.sort_uniq String.compare
            (List.concat_map (fun (a, b) -> [ a; b ]) kracer.Kracer.edges
            @ List.map snd kracer.Kracer.guards)
        in
        let unsound = Ktcb.unsound_lock_edges ~result:ktcb ~static_classes runtime in
        List.iter
          (fun (cls, file) ->
            Fmt.epr
              "klint: UNSOUND — runtime lock class %s is created in %s, which the TCB metric \
               classifies as frame-free, and is absent from the static lock graph@."
              cls file)
          unsound;
        let missing = Kracer.missing_runtime_edges ~static:kracer.Kracer.edges runtime in
        List.iter
          (fun (a, b) ->
            Fmt.epr
              "klint: UNSOUND — runtime lock order %s -> %s is missing from the static graph@."
              a b)
          missing;
        if unsound = [] && missing = [] then begin
          Fmt.pr
            "klint: lockdep reconciliation — %d lock-class edges (from %d runtime instance \
             edges), all covered statically and TCB-confined@."
            (List.length (Kracer.runtime_class_edges runtime))
            (List.length runtime);
          0
        end
        else 1
  in
  (* Same closure for the ownership pass: every heap event the tests
     observed must correspond to a static R8-R11 finding in that file. *)
  Fmt.pr "klint: ownership — %d functions, %d consuming, %d returning owned@."
    kown.Kown.funcs kown.Kown.consuming kown.Kown.returning_owned;
  let kmem_rc =
    match kmem_events with
    | None -> 0
    | Some events ->
        (* The frame-confinement half of the same contract: raw heap
           traffic must originate from the frame or a module the TCB
           metric already prices as unsafe. *)
        let unsound = Ktcb.unsound_kmem_events ~files:tree.Engine.files ~result:ktcb events in
        List.iter
          (fun ((ev : Kown.kmem_event), file) ->
            Fmt.epr
              "klint: UNSOUND — runtime %s event on heap %s (x%d) originates from %s, which \
               the TCB metric classifies as frame-free@."
              ev.Kown.kind ev.Kown.heap ev.Kown.count file)
          unsound;
        let missing =
          Kown.unflagged_kmem_events ~files:tree.Engine.files ~findings:tree.Engine.findings
            events
        in
        List.iter
          (fun ((ev : Kown.kmem_event), file, rule) ->
            Fmt.epr
              "klint: UNSOUND — runtime %s event on heap %s (x%d) has no static %s finding in %s@."
              ev.Kown.kind ev.Kown.heap ev.Kown.count (Finding.rule_id rule) file)
          missing;
        if unsound = [] && missing = [] then begin
          Fmt.pr
            "klint: kmem reconciliation — %d runtime events, all flagged statically and \
             TCB-confined@."
            (List.length events);
          0
        end
        else 1
  in
  (* Same closure for the durability pass: every barrier-discipline
     violation the Wcache audit observed at runtime must correspond to a
     static R16 finding in the file that built the offending cache. *)
  Fmt.pr
    "klint: durability — %d functions, %d durable, %d ordering contracts, %d writers, \
     %d barriers@."
    kdur.Kdur.funcs kdur.Kdur.durable_funcs kdur.Kdur.ordering_funcs kdur.Kdur.writing_funcs
    kdur.Kdur.flushing_funcs;
  if verbose then List.iter (fun f -> Fmt.pr "%a  [dur]@." Finding.pp f) kdur.Kdur.findings;
  let wcache_rc =
    match wcache_violations with
    | None -> 0
    | Some events -> (
        match
          Kdur.unflagged_wcache_violations ~files:tree.Engine.files ~findings:kdur.Kdur.findings
            events
        with
        | [] ->
            Fmt.pr
              "klint: wcache reconciliation — %d runtime violations, all covered statically@."
              (List.length events);
            0
        | missing ->
            List.iter
              (fun (cache, file, n) ->
                Fmt.epr
                  "klint: UNSOUND — runtime barrier violation on cache %s (x%d) has no static \
                   R16 finding in %s@."
                  cache n file)
              missing;
            1)
  in
  (* The durability count ratchet, dur.baseline: R16-R18 per (rule, file),
     downward-only. *)
  let dur_rc =
    count_ratchet ~name:"dur" ~against:"dur.baseline"
      ~why:"barrier discipline only tightens; fix the path, or regenerate with --update-baseline"
      ~baseline:(load "dur baseline" Baseline.Counts.load (root / "dur.baseline"))
      dur_counts
  in
  (* The TCB metric and its downward-only count ratchet. *)
  Fmt.pr "klint: tcb — %d/%d unsafe lines (%.1f%%), frame %d files/%d lines, surface %d vals@."
    ktcb.Ktcb.unsafe_loc ktcb.Ktcb.total_loc (Ktcb.ratio ktcb) ktcb.Ktcb.frame_files
    ktcb.Ktcb.frame_loc ktcb.Ktcb.surface_vals;
  let tcb_rc =
    count_ratchet ~name:"tcb" ~against:"tcb.baseline"
      ~why:"the unsafe TCB only shrinks; fix the use, or regenerate with --update-baseline"
      ~baseline:(load "tcb baseline" Baseline.Counts.load (root / "tcb.baseline"))
      tcb_counts
  in
  (* The refinement-coverage ratchet: harnesses registered statically,
     and — when [safeos refine] handed us its coverage file — the
     enumerator's aggregate numbers, which may only grow. *)
  let kv = tree.Engine.kverify in
  Fmt.pr "klint: kverify — %d harness registrations covering %d subsystems%s@."
    (List.length kv.Kverify.registrations)
    (List.length
       (List.sort_uniq String.compare
          (List.map
             (fun (reg : Kverify.registration) -> reg.Kverify.reg_subsystem)
             kv.Kverify.registrations)))
    (if r15_findings = [] then ""
     else Fmt.str "; %d Verified claim(s) UNCHECKED" (List.length r15_findings));
  let refine_rc =
    match refine_rows with
    | None -> 0
    | Some rows ->
        let diverged = List.filter (fun r -> r.Kverify.cov_divergences > 0) rows in
        List.iter
          (fun (row : Kverify.coverage_row) ->
            Fmt.epr
              "klint: REFINEMENT DIVERGENCE — harness %s reported %d divergence(s) (deepest \
               at step %d)@."
              row.Kverify.cov_harness row.Kverify.cov_divergences row.Kverify.cov_deepest)
          diverged;
        let floor = load "refine baseline" Kverify.load_floor (root / "refine.baseline") in
        let regressions, progress =
          Kverify.compare_floor ~baseline:floor (Kverify.floor_of_rows rows)
        in
        if progress <> [] then
          Fmt.pr
            "klint: refine ratchet progress — %s above baseline; regenerate with \
             --update-baseline@."
            (String.concat ", "
               (List.map (fun (m, have, want) -> Fmt.str "%s %d>%d" m have want) progress));
        List.iter
          (fun (m, have, want) ->
            Fmt.epr
              "klint: REFINE REGRESSION — %s: %d < baseline %d (refinement coverage only \
               grows; a deliberate reduction reruns with --update-baseline)@."
              m have want)
          regressions;
        if diverged <> [] || regressions <> [] then 1 else 0
  in
  Fmt.pr "klint: fixpoint evaluations (of items) — %s@."
    (String.concat ", "
       (List.map
          (fun (f : Fixpoint.stats) ->
            Fmt.str "%s %d/%d" f.Fixpoint.pass f.Fixpoint.evaluations f.Fixpoint.items)
          (Engine.fixpoints tree)));
  Fmt.pr "wall: %.3f s@." lint_wall;
  List.iter
    (fun (a : Engine.attributed) ->
      Fmt.epr "klint: VIOLATION %a — subsystem %s claims %s@." Finding.pp a.Engine.finding
        a.Engine.sub
        (Safeos_core.Level.to_string a.Engine.level))
    r.Engine.violations;
  List.fold_left max
    (if r.Engine.violations = [] then 0 else 1)
    [ head_rc; lockdep_rc; kmem_rc; wcache_rc; dur_rc; tcb_rc; refine_rc ]

open Cmdliner

let root =
  Arg.(value & opt (some string) None & info [ "root" ] ~docv:"DIR"
         ~doc:"Tree root (default: nearest dune-project above the cwd); the ratchet files \
               are ROOT/klint.baseline, ROOT/tcb.baseline, ROOT/dur.baseline and \
               ROOT/refine.baseline")

let report =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
         ~doc:"JSON report path (default: ROOT/_build/klint-report.json)")

let update_baseline =
  Arg.(value & flag & info [ "update-baseline" ]
         ~doc:"Rewrite every ratchet file this run has input for — klint.baseline, \
               tcb.baseline and dur.baseline from the current findings, refine.baseline \
               from --refine-coverage — then lint against them")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every finding")

let runtime_export =
  Arg.(value & opt (some string) None & info [ "runtime-export" ] ~docv:"FILE"
         ~doc:"Reconcile the static passes against the runtime export Ksim.Export writes \
               (KSIM_EXPORT): lock-order edges against kracer's graph, heap events against \
               kown's R8-R11 findings, barrier violations against kdur's R16 findings, and \
               lock classes and heap events against ktcb's frame.  Exit 1 if any runtime \
               record is missing from the static findings, 2 if the file is missing or \
               malformed or lacks records of one kind")

let lock_graph_dot =
  Arg.(value & opt (some string) None & info [ "lock-graph-dot" ] ~docv:"FILE"
         ~doc:"Write the static lock-order graph as Graphviz dot")

let refine_coverage =
  Arg.(value & opt (some string) None & info [ "refine-coverage" ] ~docv:"FILE"
         ~doc:"Ratchet the krefine coverage file written by 'safeos refine --coverage-out' \
               against refine.baseline, and embed it in the JSON report; exit 1 on \
               reported divergences or coverage regressions")

let baseline_head =
  Arg.(value & opt (some string) None & info [ "baseline-head" ] ~docv:"FILE"
         ~doc:"Compare klint.baseline against this HEAD copy per (rule, file) count and \
               fail on growth")

let allow_baseline_growth =
  Arg.(value & flag & info [ "allow-baseline-growth" ]
         ~doc:"Report baseline growth vs --baseline-head without failing (the \
               ALLOW_BASELINE_GROWTH=1 CI escape)")

let cmd =
  Cmd.v
    (Cmd.info "klint" ~version:"1.0.0"
       ~doc:"Static safety-ladder linter: enforce Registry level claims against the source tree")
    Term.(const run $ root $ report $ update_baseline $ verbose $ runtime_export
          $ lock_graph_dot $ refine_coverage $ baseline_head $ allow_baseline_growth)

let () = exit (Cmd.eval' cmd)
