(* kracer — the interprocedural lockset race detector.

   Per-function {!Lockset} summaries carry only *local* facts; kracer
   closes them over the {!Callgraph} with two fixpoints:

   - [may_acquire] (bottom-up, least fixpoint): the lock classes a call
     to a function may take, transitively.  Feeds the static lock-order
     graph: a call made while holding [h] contributes an [h -> x] edge
     for every [x] the callee may acquire.

   - [guaranteed_entry] (top-down, greatest fixpoint): the lock classes
     a function can rely on at entry — its own [@must_hold] annotation
     unioned with the *intersection* over all call sites of what each
     caller provably holds there.  An uncalled function gets only its
     annotation; an unannotated root gets nothing.

   R6 then fires where a [Klock.Guarded] cell is accessed and the
   interprocedural lockset cannot contain the cell's guarding class,
   and where a call site fails a callee's [@must_hold] contract.

   The second output is the static lock-order graph itself: every
   acquire-while-holding edge, class-collapsed.  [missing_runtime_edges]
   reconciles it against the edges {!Ksim.Lockdep} recorded at runtime —
   any runtime edge the static graph lacks is an unsoundness (a lock
   path the syntactic analysis failed to see) and fails CI; cycles that
   exist only statically are predicted deadlocks testing has not hit. *)

module SS = Lockset.SS
module SM = Map.Make (String)

type result = {
  findings : Finding.t list;
  edges : (string * string) list;  (** static lock-order graph, class-collapsed *)
  cycles : string list list;  (** predicted deadlock cycles in [edges] *)
  guards : (string * string) list;  (** cell class -> guard class *)
  funcs : int;  (** functions analyzed *)
  unresolved_calls : int;  (** known-name call sites left unresolved *)
  fixpoint : Fixpoint.stats list;  (** [may_acquire], then [guaranteed_entry] *)
}

(* Klock's own implementation manipulates holder fields directly and
   defines the very primitives the walk intercepts — analyzing it would
   only produce noise about the mechanism itself. *)
let excluded rel = String.equal rel "lib/ksim/klock.ml"

(* Fixpoints --------------------------------------------------------------- *)

let name_of (s : Lockset.summary) = Callgraph.name s.Lockset.func

let may_acquire summaries =
  let own (s : Lockset.summary) =
    let own =
      List.fold_left
        (fun acc (e : Lockset.event) -> SS.add e.Lockset.subject acc)
        SS.empty s.Lockset.acquires
    in
    List.fold_left (fun acc l -> SS.add l acc) own
      s.Lockset.func.Callgraph.annot.Annot.acquires
  in
  let get, _, _, stats =
    Fixpoint.solve ~pass:"may_acquire" ~equal:SS.equal ~default:SS.empty
      ~seed:(List.map (fun s -> (name_of s, own s)) summaries)
      ~key:name_of
      ~step:(fun ~emit:_ get (s : Lockset.summary) ->
        List.fold_left
          (fun acc (callee, _) -> SS.union acc (get (Callgraph.name callee)))
          (get (name_of s)) s.Lockset.calls)
      summaries
  in
  (get, stats)

let guaranteed_entry summaries =
  (* the universe for the greatest fixpoint: every class the tree ever
     mentions, so "top" means "could rely on anything" *)
  let universe =
    List.fold_left
      (fun acc (s : Lockset.summary) ->
        let acc =
          List.fold_left
            (fun acc (e : Lockset.event) -> SS.add e.Lockset.subject acc)
            acc s.Lockset.acquires
        in
        let a = s.Lockset.func.Callgraph.annot in
        let acc = List.fold_left (Fun.flip SS.add) acc a.Annot.must_hold in
        let acc = List.fold_left (Fun.flip SS.add) acc a.Annot.acquires in
        List.fold_left (fun acc (_, g) -> SS.add g acc) acc s.Lockset.guards)
      SS.empty summaries
  in
  let sites = Hashtbl.create 64 in
  (* callee name -> (caller name, locked at site) list *)
  List.iter
    (fun (s : Lockset.summary) ->
      let caller = Callgraph.name s.Lockset.func in
      List.iter
        (fun (callee, (e : Lockset.event)) ->
          let key = Callgraph.name callee in
          Hashtbl.replace sites key
            ((caller, e.Lockset.locked)
            :: Option.value ~default:[] (Hashtbl.find_opt sites key)))
        s.Lockset.calls)
    summaries;
  let annot_of = Hashtbl.create 64 in
  List.iter
    (fun (s : Lockset.summary) ->
      Hashtbl.replace annot_of
        (Callgraph.name s.Lockset.func)
        (SS.of_list s.Lockset.func.Callgraph.annot.Annot.must_hold))
    summaries;
  let init s =
    let name = name_of s in
    ( name,
      if Hashtbl.mem sites name then universe
      else Hashtbl.find annot_of name (* uncalled: only the contract holds *) )
  in
  let get, _, _, stats =
    Fixpoint.solve ~pass:"guaranteed_entry" ~equal:SS.equal ~default:SS.empty
      ~seed:(List.map init summaries)
      ~key:name_of
      ~step:(fun ~emit:_ get s ->
        let name = name_of s in
        match Hashtbl.find_opt sites name with
        | None -> get name
        | Some call_sites ->
            let from_callers =
              List.fold_left
                (fun acc (caller, locked) ->
                  let provided = SS.union locked (get caller) in
                  match acc with
                  | None -> Some provided
                  | Some inter -> Some (SS.inter inter provided))
                None call_sites
            in
            SS.union (Hashtbl.find annot_of name)
              (Option.value ~default:SS.empty from_callers))
      summaries
  in
  (get, stats)

(* Cycle prediction -------------------------------------------------------- *)

(* Tarjan over the class graph: any SCC with more than one node — or a
   self-loop, two instances of one class nested — is an order cycle no
   runtime interleaving has to get lucky to deadlock on. *)
let find_cycles edges =
  let succs = Hashtbl.create 16 in
  let nodes = ref [] in
  let add_node n = if not (Hashtbl.mem succs n) then begin Hashtbl.replace succs n []; nodes := n :: !nodes end in
  List.iter
    (fun (a, b) ->
      add_node a;
      add_node b;
      Hashtbl.replace succs a (b :: Hashtbl.find succs a))
    edges;
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Hashtbl.find succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if String.equal w v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) (List.rev !nodes);
  let self_loop n = List.exists (fun (a, b) -> String.equal a n && String.equal b n) edges in
  !sccs
  |> List.filter (fun scc ->
         match scc with [ n ] -> self_loop n | [] -> false | _ -> true)
  |> List.map (List.sort String.compare)
  |> List.sort compare

(* The analysis ------------------------------------------------------------ *)

let pp_classes ss =
  match SS.elements ss with [] -> "nothing" | ls -> String.concat ", " ls

let of_callgraph cg =
  let cg = Callgraph.restrict cg ~keep:(fun rel -> not (excluded rel)) in
  let summaries = List.map (Lockset.summarize cg) cg.Callgraph.funcs in
  let may, may_stats = may_acquire summaries in
  let entry, entry_stats = guaranteed_entry summaries in
  let guard_map =
    List.concat_map (fun (s : Lockset.summary) -> s.Lockset.guards) summaries
    |> List.sort_uniq compare
  in
  let guards_of cell = List.filter_map (fun (c, g) -> if String.equal c cell then Some g else None) guard_map in
  let findings = ref [] in
  let edges = ref [] in
  List.iter
    (fun (s : Lockset.summary) ->
      let func = s.Lockset.func in
      let fname = Callgraph.name func in
      let ctx = entry fname in
      let held (e : Lockset.event) = SS.union e.Lockset.locked ctx in
      (* R6a: guarded-cell access without the guard in the lockset *)
      List.iter
        (fun (u : Lockset.event) ->
          match guards_of u.Lockset.subject with
          | [] -> ()
          | gs ->
              let h = held u in
              if not (List.exists (fun g -> SS.mem g h) gs) then
                findings :=
                  Finding.v ~rule:Finding.R6_lockset_race ~file:func.Callgraph.file
                    ~loc:u.Lockset.loc ~func:fname
                    (Fmt.str
                       "access to guarded cell %s without its lock %s (interprocedural lockset: %s)"
                       u.Lockset.subject (String.concat "/" gs) (pp_classes h))
                  :: !findings)
        s.Lockset.cell_uses;
      (* R6b: call sites must satisfy the callee's @must_hold contract *)
      List.iter
        (fun (callee, (e : Lockset.event)) ->
          let h = held e in
          List.iter
            (fun l ->
              if not (SS.mem l h) then
                findings :=
                  Finding.v ~rule:Finding.R6_lockset_race ~file:func.Callgraph.file
                    ~loc:e.Lockset.loc ~func:fname
                    (Fmt.str "call to %s requires @must_hold %s but the lockset here is %s"
                       (Callgraph.name callee) l (pp_classes h))
                  :: !findings)
            callee.Callgraph.annot.Annot.must_hold)
        s.Lockset.calls;
      (* static lock-order edges: direct acquisitions... *)
      List.iter
        (fun (a : Lockset.event) ->
          SS.iter (fun h -> edges := (h, a.Lockset.subject) :: !edges) (held a))
        s.Lockset.acquires;
      (* ...and acquisitions reached through calls *)
      List.iter
        (fun (callee, (e : Lockset.event)) ->
          let h = held e in
          if not (SS.is_empty h) then
            SS.iter
              (fun x -> SS.iter (fun hl -> edges := (hl, x) :: !edges) h)
              (may (Callgraph.name callee)))
        s.Lockset.calls)
    summaries;
  let edges = List.sort_uniq compare !edges in
  {
    findings = Finding.sort !findings;
    edges;
    cycles = find_cycles edges;
    guards = guard_map;
    funcs = List.length summaries;
    unresolved_calls =
      List.fold_left (fun acc (s : Lockset.summary) -> acc + s.Lockset.unresolved) 0 summaries;
    fixpoint = [ may_stats; entry_stats ];
  }

let analyze ~root parsed = of_callgraph (Callgraph.build ~root parsed)

(* Reconciliation ---------------------------------------------------------- *)

(* Runtime edges arrive as instance names ([i_lock:3]); collapse to
   classes, the edges the static graph is compared against.  How many
   instances a run creates follows its inputs; the class edges do not. *)
let runtime_class_edges runtime =
  runtime
  |> List.map (fun (a, b) -> (Annot.lock_class a, Annot.lock_class b))
  |> List.sort_uniq compare

(* Subtract the static graph.  Anything left is a lock ordering the
   tests exercised that the static analysis missed — unsoundness, not a
   style nit, hence CI-fatal. *)
let missing_runtime_edges ~static runtime =
  List.filter (fun e -> not (List.mem e static)) (runtime_class_edges runtime)

(* The runtime export's lock-order edges: held, acquired. *)
let lockdep_edge =
  {
    Kparse.kind = "lockdep";
    of_fields = (function [ held; acquired ] -> Some (held, acquired) | _ -> None);
  }

let dot_of_edges edges =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph kracer {\n";
  List.iter (fun (a, b) -> Buffer.add_string buf (Fmt.str "  %S -> %S;\n" a b)) edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
