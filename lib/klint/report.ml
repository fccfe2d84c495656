(* The Figure-2-style machine-readable report: findings bucketed by bug
   class and rule, the share preventable at each ladder rung, and the
   per-subsystem table whose level histogram reconciles with
   [Registry.level_counts].  Hand-rolled JSON — no external deps. *)

module Level = Safeos_core.Level
module Registry = Safeos_core.Registry

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = "\"" ^ escape s ^ "\""

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let json_arr items = "[" ^ String.concat ", " items ^ "]"

let count_by key items =
  List.fold_left
    (fun acc item ->
      let k = key item in
      let n = try List.assoc k acc with Not_found -> 0 in
      (k, n + 1) :: List.remove_assoc k acc)
    [] items
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* % of findings whose bug class is structurally prevented at or below
   each rung — what the paper's Figure 2 claims per roadmap step,
   measured against this tree's own residual findings. *)
let preventable_at findings =
  let total = List.length findings in
  List.map
    (fun level ->
      let prevented =
        List.length
          (List.filter
             (fun (a : Engine.attributed) ->
               Level.prevents level (Finding.bug_class a.Engine.finding.Finding.rule))
             findings)
      in
      (level, pct prevented total))
    Level.all

let subsystem_rows (r : Engine.reconciliation) registry =
  let subs =
    List.sort_uniq String.compare (List.map (fun a -> a.Engine.sub) r.Engine.attributed)
  in
  let registered_subs =
    match registry with
    | Some reg -> List.map (fun e -> e.Registry.name) (Registry.all reg)
    | None -> []
  in
  List.sort_uniq String.compare (subs @ registered_subs)
  |> List.map (fun sub ->
         let of_sub = List.filter (fun a -> a.Engine.sub = sub) r.Engine.attributed in
         let level, registered, loc =
           match registry with
           | Some reg -> (
               match Registry.find reg sub with
               | Some e -> (e.Registry.level, true, e.Registry.loc)
               | None -> (
                   match of_sub with
                   | a :: _ -> (a.Engine.level, false, 0)
                   | [] -> (Level.Unsafe, false, 0)))
           | None -> (
               match of_sub with
               | a :: _ -> (a.Engine.level, false, 0)
               | [] -> (Level.Unsafe, false, 0))
         in
         json_obj
           [
             ("name", json_str sub);
             ("level", json_str (Level.to_string level));
             ("registered", string_of_bool registered);
             ("loc", string_of_int loc);
             ("findings", string_of_int (List.length of_sub));
             ( "violations",
               string_of_int
                 (List.length
                    (List.filter (fun a -> a.Engine.forbidden && not a.Engine.baselined) of_sub))
             );
           ])

(* The TCB metric object — also what [safeos tcb --json] prints, so the
   CLI and the persisted report can never disagree on shape. *)
let tcb_json (t : Ktcb.result) =
  let rule_count rule =
    List.length (List.filter (fun (f : Finding.t) -> f.Finding.rule = rule) t.Ktcb.findings)
  in
  json_obj
    [
      ( "frame",
        json_obj
          [
            ("files", string_of_int t.Ktcb.frame_files);
            ("loc", string_of_int t.Ktcb.frame_loc);
            ("surface_vals", string_of_int t.Ktcb.surface_vals);
          ] );
      ( "total",
        json_obj
          [
            ("loc", string_of_int t.Ktcb.total_loc);
            ("unsafe_loc", string_of_int t.Ktcb.unsafe_loc);
            ("ratio_pct", Fmt.str "%.1f" (Ktcb.ratio t));
          ] );
      ( "by_rule",
        json_obj
          [
            ("R12", string_of_int (rule_count Finding.R12_unsafe_primitive));
            ("R13", string_of_int (rule_count Finding.R13_frame_bypass));
            ("R14", string_of_int (rule_count Finding.R14_unsound_export));
          ] );
      ( "subsystems",
        json_arr
          (List.map
             (fun (r : Ktcb.row) ->
               json_obj
                 [
                   ("name", json_str r.Ktcb.sub);
                   ("loc", string_of_int r.Ktcb.loc);
                   ("unsafe_loc", string_of_int r.Ktcb.unsafe_loc);
                   ("ratio_pct", Fmt.str "%.1f" (pct r.Ktcb.unsafe_loc r.Ktcb.loc));
                   ("direct_uses", string_of_int r.Ktcb.direct);
                   ("indirect_uses", string_of_int r.Ktcb.indirect);
                   ("in_frame", string_of_bool r.Ktcb.in_frame);
                   ("exhibit", string_of_bool r.Ktcb.exhibit);
                 ])
             t.Ktcb.rows) );
    ]

(* The durability object — R16-R18 counts plus the transfer-summary
   shape, so the report records how much of the tree the barrier
   discipline actually covers. *)
let durability_json (d : Kdur.result) =
  let rule_count rule =
    List.length (List.filter (fun (f : Finding.t) -> f.Finding.rule = rule) d.Kdur.findings)
  in
  json_obj
    [
      ("functions_analyzed", string_of_int d.Kdur.funcs);
      ("durable_contracts", string_of_int d.Kdur.durable_funcs);
      ("ordering_contracts", string_of_int d.Kdur.ordering_funcs);
      ("writing_functions", string_of_int d.Kdur.writing_funcs);
      ("flushing_functions", string_of_int d.Kdur.flushing_funcs);
      ( "by_rule",
        json_obj
          [
            ("R16", string_of_int (rule_count Finding.R16_unordered_write));
            ("R17", string_of_int (rule_count Finding.R17_ack_before_durable));
            ("R18", string_of_int (rule_count Finding.R18_barrier_elision));
          ] );
    ]

(* The refinement-coverage object: static harness registrations (the
   kverify scan) plus, when a coverage file from [safeos refine] is
   supplied, the aggregated enumerator numbers the CI ratchet tracks. *)
let refinement_json ?coverage (kv : Kverify.result) =
  let sum f rows = List.fold_left (fun a r -> a + f r) 0 rows in
  let coverage_fields =
    match coverage with
    | None -> []
    | Some rows ->
        [
          ("modules_covered", string_of_int (List.length rows));
          ("ops", string_of_int (sum (fun r -> r.Kverify.cov_ops) rows));
          ("states_explored", string_of_int (sum (fun r -> r.Kverify.cov_states) rows));
          ("crash_points", string_of_int (sum (fun r -> r.Kverify.cov_crash_points) rows));
          ("crash_images", string_of_int (sum (fun r -> r.Kverify.cov_crash_images) rows));
          ("skipped_images", string_of_int (sum (fun r -> r.Kverify.cov_skipped) rows));
          ("divergences", string_of_int (sum (fun r -> r.Kverify.cov_divergences) rows));
          ( "deepest_divergence",
            string_of_int
              (List.fold_left (fun a r -> max a r.Kverify.cov_deepest) (-1) rows) );
          ( "by_harness",
            json_arr
              (List.map
                 (fun (r : Kverify.coverage_row) ->
                   json_obj
                     [
                       ("harness", json_str r.Kverify.cov_harness);
                       ("subsystem", json_str r.Kverify.cov_subsystem);
                       ("ops", string_of_int r.Kverify.cov_ops);
                       ("states", string_of_int r.Kverify.cov_states);
                       ("crash_images", string_of_int r.Kverify.cov_crash_images);
                       ("divergences", string_of_int r.Kverify.cov_divergences);
                       ("fingerprint", json_str r.Kverify.cov_fingerprint);
                     ])
                 rows) );
        ]
  in
  json_obj
    (( "registered_harnesses",
       json_arr
         (List.map
            (fun (reg : Kverify.registration) ->
              json_obj
                [
                  ("name", json_str reg.Kverify.reg_name);
                  ("subsystem", json_str reg.Kverify.reg_subsystem);
                  ("file", json_str reg.Kverify.reg_file);
                  ("line", string_of_int reg.Kverify.reg_line);
                ])
            kv.Kverify.registrations) )
    :: coverage_fields)

let to_json ?registry ?refine (tree : Engine.tree_result) (r : Engine.reconciliation) =
  let findings = r.Engine.attributed in
  let by_rule =
    count_by (fun a -> Finding.rule_id a.Engine.finding.Finding.rule) findings
  in
  let by_class =
    count_by
      (fun a -> Level.bug_class_to_string (Finding.bug_class a.Engine.finding.Finding.rule))
      findings
  in
  let level_counts =
    match registry with
    | Some reg ->
        List.map
          (fun (level, n) -> (Level.to_string level, string_of_int n))
          (Registry.level_counts reg)
    | None -> []
  in
  json_obj
    [
      ("tool", json_str "klint");
      ("files_linted", string_of_int (List.length tree.Engine.files));
      ("effective_loc", string_of_int tree.Engine.effective_loc);
      ("total_findings", string_of_int (List.length findings));
      ( "baselined",
        string_of_int (List.length (List.filter (fun a -> a.Engine.baselined) findings)) );
      ("violations", string_of_int (List.length r.Engine.violations));
      ("stale_baseline", string_of_int (List.length r.Engine.stale_baseline));
      ("by_rule", json_obj (List.map (fun (k, n) -> (k, string_of_int n)) by_rule));
      ("by_bug_class", json_obj (List.map (fun (k, n) -> (k, string_of_int n)) by_class));
      ( "preventable_at",
        json_obj
          (List.map
             (fun (level, p) -> (Level.to_string level, Fmt.str "%.1f" p))
             (preventable_at findings)) );
      ("subsystems", json_arr (subsystem_rows r registry));
      ("level_counts", json_obj level_counts);
      ( "lock_graph",
        let k = tree.Engine.kracer in
        json_obj
          [
            ("functions_analyzed", string_of_int k.Kracer.funcs);
            ("unresolved_calls", string_of_int k.Kracer.unresolved_calls);
            ( "guards",
              json_arr
                (List.map
                   (fun (cell, lock) ->
                     json_obj [ ("cell", json_str cell); ("lock", json_str lock) ])
                   k.Kracer.guards) );
            ( "edges",
              json_arr
                (List.map
                   (fun (a, b) -> json_obj [ ("held", json_str a); ("acquired", json_str b) ])
                   k.Kracer.edges) );
            ( "predicted_cycles",
              json_arr
                (List.map (fun cyc -> json_arr (List.map json_str cyc)) k.Kracer.cycles) );
          ] );
      ( "ownership",
        let o = tree.Engine.kown in
        let own_findings =
          List.filter
            (fun a ->
              match a.Engine.finding.Finding.rule with
              | Finding.R8_use_after_free | Finding.R9_double_free
              | Finding.R10_error_leak | Finding.R11_borrow_escape ->
                  true
              | _ -> false)
            findings
        in
        json_obj
          [
            ("functions_analyzed", string_of_int o.Kown.funcs);
            ("consuming_functions", string_of_int o.Kown.consuming);
            ("returning_owned", string_of_int o.Kown.returning_owned);
            ("findings", string_of_int (List.length own_findings));
            ( "by_rule",
              json_obj
                (List.map
                   (fun (k, n) -> (k, string_of_int n))
                   (count_by
                      (fun a -> Finding.rule_id a.Engine.finding.Finding.rule)
                      own_findings)) );
          ] );
      ("tcb", tcb_json tree.Engine.ktcb);
      ("durability", durability_json tree.Engine.kdur);
      ("refinement", refinement_json ?coverage:refine tree.Engine.kverify);
      ( "fixpoint",
        json_obj
          (List.map
             (fun (f : Fixpoint.stats) ->
               ( f.Fixpoint.pass,
                 json_obj
                   [
                     ("items", string_of_int f.Fixpoint.items);
                     ("evaluations", string_of_int f.Fixpoint.evaluations);
                   ] ))
             (Engine.fixpoints tree)) );
    ]

let write ~path json =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc json;
      output_char oc '\n')
