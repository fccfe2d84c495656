(* kdur — the interprocedural barrier-discipline & durability-ordering
   analysis (rules R16–R18), third of klint's summary-fixpoint passes
   after kracer (locks) and kown (ownership).

   Per-function {!Durset} walks carry only local facts; kdur closes them
   over the {!Callgraph} with one bottom-up fixpoint on durability
   transfers: whether a function leaves the device volatile (from a
   clean or dirty entry), writes at all, or performs a full barrier.
   Annotations ([@flushes]/[@durable]/[@orders_after], [.mli]-merged)
   override the inference where present, so a barrier contract can be
   stated once and checked against every caller.

   The second output is the runtime reconciliation: {!Kblock.Wcache}
   exports its barrier-discipline audit (read-back-then-dependent-write
   violations) when [KSIM_EXPORT] is set, and
   [unflagged_wcache_violations] subtracts kdur's static R16 findings —
   any runtime violation in a linted file that kdur did not flag
   statically is an unsoundness (an ordering path the syntactic analysis
   failed to see) and fails CI, exactly like kracer's lock-graph and
   kown's kmem-event reconciliations.

   R16–R18 ratchet by per-(rule, file) count (dur.baseline, shared
   {!Baseline.Counts} engine), not by the ladder reconciliation: the
   journal's own [?barriers:false] ablation is a statically reachable
   missing-flush path inside Verified-claiming subsystems, and the
   ratchet must tolerate the declared mutant while forbidding new ones. *)

type result = {
  findings : Finding.t list;
  funcs : int;  (** functions analyzed *)
  durable_funcs : int;  (** functions contracted [@durable] *)
  ordering_funcs : int;  (** functions contracted [@orders_after] *)
  writing_funcs : int;  (** summaries that issue device writes *)
  flushing_funcs : int;  (** summaries that perform a full barrier *)
  summaries : (string * Durset.summary) list;
      (** the converged per-function transfers, keyed by qualified name *)
  fixpoint : Fixpoint.stats list;
}

(* The block mechanism itself is excluded: [Io.t] is the contract being
   policed, and Wcache/Blockdev/Flakydev are the devices implementing
   it — their write-back plumbing legitimately buffers, reorders and
   destages, so analyzing the mechanism would only flag itself. *)
let excluded rel =
  List.mem rel
    [
      "lib/kblock/io.ml"; "lib/kblock/wcache.ml"; "lib/kblock/blockdev.ml";
      "lib/kblock/flakydev.ml";
    ]

let of_callgraph cg =
  let cg = Callgraph.restrict cg ~keep:(fun rel -> not (excluded rel)) in
  (* Bottom-up transfer fixpoint, kown's pattern, reporting from each
     function's last walk.  Not monotone in every field: [out_dirty]
     starts true and may turn off as callee summaries arrive. *)
  let _, summaries, findings, stats =
    Fixpoint.solve ~pass:"kdur" ~equal:Durset.summary_equal ~default:Durset.empty_summary
      ~key:Callgraph.name
      ~step:(fun ~emit -> Durset.summarize ~emit cg)
      cg.Callgraph.funcs
  in
  let writing_funcs, flushing_funcs =
    List.fold_left
      (fun (w, fl) (_, (s : Durset.summary)) ->
        ( (if s.Durset.writes then w + 1 else w),
          if s.Durset.flushes then fl + 1 else fl ))
      (0, 0) summaries
  in
  let durable_funcs, ordering_funcs =
    List.fold_left
      (fun (d, o) (f : Callgraph.func) ->
        ( (if f.Callgraph.annot.Annot.durable then d + 1 else d),
          if f.Callgraph.annot.Annot.orders_after <> [] then o + 1 else o ))
      (0, 0) cg.Callgraph.funcs
  in
  {
    findings = Finding.sort findings;
    funcs = List.length cg.Callgraph.funcs;
    durable_funcs;
    ordering_funcs;
    writing_funcs;
    flushing_funcs;
    summaries = List.sort (fun (a, _) (b, _) -> String.compare a b) summaries;
    fixpoint = [ stats ];
  }

let analyze ~root parsed = of_callgraph (Callgraph.build ~root parsed)

(* The dur.baseline count ratchet, on the shared {!Baseline.Counts}
   engine. *)
let baseline_header =
  "# dur baseline — grandfathered durability findings (R16-R18), counted per\n\
   # (rule, file).  The declared exhibits live here: the journal's\n\
   # ?barriers:false ablation paths and lib/kfs/rawlog_unsafe.ml.  Shrink by\n\
   # fixing barrier paths; regenerate (after genuine fixes only) with:\n\
   #   dune exec bin/klint/main.exe -- --update-baseline\n"

(* Runtime reconciliation --------------------------------------------------- *)

type wcache_violation = {
  cache : string;
  v_blkno : int;
  v_read_seq : int;
  v_write_blkno : int;
  v_write_seq : int;
}

(* The runtime export's barrier violations: cache, blkno, read_seq,
   write_blkno, write_seq. *)
let wcache_violation =
  {
    Kparse.kind = "wcache";
    of_fields =
      (function
      | [ cache; a; b; c; d ] -> (
          match List.map int_of_string_opt [ a; b; c; d ] with
          | [ Some v_blkno; Some v_read_seq; Some v_write_blkno; Some v_write_seq ] ->
              Some { cache; v_blkno; v_read_seq; v_write_blkno; v_write_seq }
          | _ -> None)
      | _ -> None);
  }

(* Aggregate runtime violations by cache and subtract the static
   findings: a cache survives — [(cache, file, count)] — when its file
   has no static R16 finding at all.  A cache is attributed to the
   linted file named after it ([~name:"rawlog_unsafe"] ->
   [lib/kfs/rawlog_unsafe.ml], {!Loc.file_named}); caches with no such
   file (test-local scratch caches, default-named stacks) cannot
   correspond to a static finding and are skipped, as are caches naming
   a mechanism file kdur excludes by design.  Audit violations carry
   block numbers and write sequences, not source locations, so the
   granularity is the file: the static analysis must have *something* to
   say about unordered dependent writes in that file, baselined or
   not. *)
let unflagged_wcache_violations ~files ~findings events =
  let agg = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      Hashtbl.replace agg ev.cache
        (1 + Option.value ~default:0 (Hashtbl.find_opt agg ev.cache)))
    events;
  Hashtbl.fold (fun cache n acc -> (cache, n) :: acc) agg []
  |> List.sort compare
  |> List.filter_map (fun (cache, n) ->
         match Loc.file_named ~files cache with
         | None -> None
         | Some file when excluded file -> None
         | Some file ->
             if
               List.exists
                 (fun (f : Finding.t) ->
                   f.Finding.rule = Finding.R16_unordered_write
                   && String.equal f.Finding.file file)
                 findings
             then None
             else Some (cache, file, n))
