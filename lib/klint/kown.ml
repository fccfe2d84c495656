(* kown — the interprocedural ownership-lifetime analysis (rules
   R8–R11), kracer's sibling for the memory-safety rung of the ladder.

   Per-function {!Ownset} walks carry only local facts; kown closes them
   over the {!Callgraph} with one bottom-up fixpoint on ownership
   summaries: which parameters a function consumes (frees or moves) and
   whether its result is a fresh owned object.  Annotations
   ([@consumes]/[@borrows]/[@returns_owned], [.mli]-merged) override the
   inference where present, so a contract can be stated once and checked
   against every caller.

   The second output is the runtime reconciliation: {!Ksim.Kmem} exports
   heap events (use-after-free, double-free, leak sites) when
   [KSIM_EXPORT] is set, and [unflagged_kmem_events] subtracts
   kown's static findings — any runtime event in a linted file that kown
   did not flag statically is an unsoundness (a lifetime path the
   syntactic analysis failed to see) and fails CI, exactly like kracer's
   lock-graph reconciliation. *)

type result = {
  findings : Finding.t list;
  funcs : int;  (** functions analyzed *)
  consuming : int;  (** functions with a non-empty consumes set *)
  returning_owned : int;  (** functions whose result is owned *)
  summaries : (string * Ownset.summary) list;
      (** the converged per-function summaries, keyed by qualified name —
          ktcb's R14 reads ownership facts straight from these *)
  fixpoint : Fixpoint.stats list;
}

(* The allocators' own implementations free and resurrect their internal
   state by design — analyzing the mechanism would only flag itself. *)
let excluded rel =
  List.mem rel [ "lib/ksim/kmem.ml"; "lib/ownership/checker.ml"; "lib/ownership/cap.ml" ]

let of_callgraph cg =
  let cg = Callgraph.restrict cg ~keep:(fun rel -> not (excluded rel)) in
  (* Bottom-up summary fixpoint, kracer's may_acquire pattern.  Each
     function's findings come from its last walk, which read only the
     settled summaries. *)
  let _, summaries, findings, stats =
    Fixpoint.solve ~pass:"kown" ~equal:Ownset.summary_equal ~default:Ownset.empty_summary
      ~key:Callgraph.name
      ~step:(fun ~emit -> Ownset.summarize ~emit cg)
      cg.Callgraph.funcs
  in
  let consuming, returning_owned =
    List.fold_left
      (fun (c, r) (_, (s : Ownset.summary)) ->
        ( (if Ownset.SS.is_empty s.Ownset.consumes then c else c + 1),
          if s.Ownset.returns_owned then r + 1 else r ))
      (0, 0) summaries
  in
  {
    findings = Finding.sort findings;
    funcs = List.length cg.Callgraph.funcs;
    consuming;
    returning_owned;
    summaries = List.sort (fun (a, _) (b, _) -> String.compare a b) summaries;
    fixpoint = [ stats ];
  }

let analyze ~root parsed = of_callgraph (Callgraph.build ~root parsed)

(* Runtime reconciliation --------------------------------------------------- *)

type kmem_event = { kind : string; heap : string; site : string; count : int }

(* The runtime export's heap events: event, heap, site, count. *)
let kmem_event =
  {
    Kparse.kind = "kmem";
    of_fields =
      (function
      | [ kind; heap; site; count ] ->
          Option.map (fun count -> { kind; heap; site; count }) (int_of_string_opt count)
      | _ -> None);
  }

let rule_of_kind = function
  | "uaf" -> Some Finding.R8_use_after_free
  | "double_free" -> Some Finding.R9_double_free
  | "leak" -> Some Finding.R10_error_leak
  | _ -> None

(* Aggregate runtime events by (kind, heap) and subtract the static
   findings: an event survives — [(event, file, rule)] — when its file
   has no static finding of the matching rule at all.  A heap is
   attributed to the linted file named after it ([~name:"memfs_unsafe"]
   -> [lib/kfs/memfs_unsafe.ml], {!Loc.file_named}); heaps with no such
   file (test-local scratch heaps) cannot correspond to a static finding
   and are skipped.  Site strings are allocation sites, not source
   locations, so the granularity is (rule, file): the static analysis
   must have *something* to say about that failure mode in that file,
   baselined or not. *)
let unflagged_kmem_events ~files ~findings events =
  let agg = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let key = (ev.kind, ev.heap) in
      match Hashtbl.find_opt agg key with
      | Some prior -> Hashtbl.replace agg key { prior with count = prior.count + ev.count }
      | None -> Hashtbl.replace agg key ev)
    events;
  Hashtbl.fold (fun _ ev acc -> ev :: acc) agg []
  |> List.sort (fun a b -> compare (a.kind, a.heap) (b.kind, b.heap))
  |> List.filter_map (fun ev ->
         match rule_of_kind ev.kind with
         | None -> None
         | Some rule -> (
             match Loc.file_named ~files ev.heap with
             | None -> None
             | Some file ->
                 if
                   List.exists
                     (fun (f : Finding.t) ->
                       f.Finding.rule = rule && String.equal f.Finding.file file)
                     findings
                 then None
                 else Some (ev, file, rule)))
