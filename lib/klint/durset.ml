(* The per-function durability walk kdur's interprocedural analysis is
   built from — the static twin of {!Kblock.Wcache}'s runtime
   barrier-discipline audit, and klint's third walk module after
   {!Lockset} and {!Ownset}.

   For one function body, thread an abstract device state:

     volatile    the device may hold acknowledged-but-unflushed writes
                 issued since entry (entry assumed clean)
     dirty_out   the same outcome under the opposite entry assumption, so
                 one walk summarizes the function as a transfer on the
                 caller's pending set: a write sets both, a barrier
                 clears both, a call composes the callee's pair
     vkeys       binding keys tied to still-volatile content: payload
                 keys of volatile writes, bindings read back from the
                 device while volatile (Wcache's taint), and bindings
                 derived from either
     obligation  a call site whose callee exported its flush obligation
                 ([@orders_after]) that no barrier has covered yet

   Io operations are matched syntactically, the way the tree writes
   them: record-field applications [h.Io.write], [h.Io.flush],
   [h.Io.read], [h.Io.write_fua] (any field path whose penultimate
   component is [Io]) plus the module-level compat shim [Io.fua].
   [flush] is a full barrier and there is one device per function —
   Wcache's own semantics — so a barrier clears everything.  Keys rooted
   at the write's own handle do not count as payload: every operation
   through [j.io] mentions [j], and that is plumbing, not data flow.

   Three rules:

     R16  a write (direct or through a summarized callee) whose payload
          mentions a key still tied to volatile content — content a
          crash can lose — with no intervening barrier: the static twin
          of the audit's read-back-then-dependent-write violation
     R17  in a function contracted [@durable]: an [Ok] acknowledgement
          constructed (outside nested lambdas) while the device is
          volatile — the missing-barrier journal mutant's signature —
          or, failing that, any path reaching return still volatile
     R18  exit is volatile, part of that volatility arrived through a
          callee that explicitly re-exported its flush obligation
          ([@orders_after]), and this function neither flushed nor
          carries a durability contract of its own: the obligation
          evaporated at a wrapper boundary

   Closures passed as call arguments are walked with effects retained
   (the run-now combinator idiom: [write_all], [List.iter], retry
   runners); other lambdas — record fields minting an [Io.t], deferred
   thunks — are walked from a fresh state for findings only.  Partial
   applications and unresolved calls are durability-neutral — the
   documented unsoundness the Wcache-audit reconciliation exists to
   catch. *)

open Parsetree
open Rules
module SS = Set.Make (String)

(* The per-function transfer kdur propagates over the call graph. *)
type summary = {
  out_clean : bool;  (** device volatile at exit when entered clean *)
  out_dirty : bool;  (** device volatile at exit when entered dirty *)
  writes : bool;  (** issues device writes, directly or via callees *)
  flushes : bool;  (** performs a full barrier on some path *)
}

(* The neutral transfer — also the fixpoint's starting point: effects
   only turn on as callee summaries arrive. *)
let empty_summary =
  { out_clean = false; out_dirty = true; writes = false; flushes = false }

let summary_equal a b =
  Bool.equal a.out_clean b.out_clean
  && Bool.equal a.out_dirty b.out_dirty
  && Bool.equal a.writes b.writes
  && Bool.equal a.flushes b.flushes

(* Primitive classification ---------------------------------------------- *)

type prim =
  | P_write of expression  (** handle; acknowledged volatile *)
  | P_fua of expression option  (** durable on ack, self-ordered only *)
  | P_flush
  | P_read of expression
  | P_none

let classify f args =
  match (strip f).pexp_desc with
  | Pexp_field (h, { txt; _ }) when path_matches ~penult:"Io" ~last:"write" txt ->
      P_write h
  | Pexp_field (h, { txt; _ }) when path_matches ~penult:"Io" ~last:"write_fua" txt
    ->
      P_fua (Some h)
  | Pexp_field (_, { txt; _ }) when path_matches ~penult:"Io" ~last:"flush" txt ->
      P_flush
  | Pexp_field (h, { txt; _ }) when path_matches ~penult:"Io" ~last:"read" txt ->
      P_read h
  | _ when ident_matches ~penult:"Io" ~last:"fua" f -> P_fua (Ownset.nth_nolabel 0 args)
  | _ -> P_none

let root_of k =
  match String.index_opt k '.' with Some i -> String.sub k 0 i | None -> k

(* Does a call with [args] apply every parameter of [callee] that has no
   default?  An optional argument left out is filled in, so such a call
   runs the body; one that leaves out a required argument is a closure. *)
let full_call callee args =
  let params = Ownset.params_of callee in
  let optional =
    List.filter_map (function Asttypes.Optional l, _ -> Some l | _ -> None) params
  in
  let fills = function
    | Asttypes.Nolabel, _ -> true
    | Asttypes.Labelled l, _ -> not (List.mem l optional)
    | Asttypes.Optional _, _ -> false
  in
  List.length (List.filter fills args) >= List.length params - List.length optional

(* Payload keys of a write: every key its arguments mention, except those
   rooted at the write's own handle. *)
let payload_keys ?handle args =
  let hroot =
    match handle with
    | Some h ->
        let k = expr_key h in
        if Ownset.tracked k then Some (root_of k) else None
    | None -> None
  in
  List.fold_left (fun acc (_, a) -> SS.union acc (Ownset.mentioned_keys a)) SS.empty args
  |> SS.filter (fun k ->
         match hroot with Some r -> not (String.equal (root_of k) r) | None -> true)

(* The walk -------------------------------------------------------------- *)

type state = {
  volatile : bool;
  dirty_out : bool;
  vkeys : SS.t;
  obligation : (Location.t * string) option;
}

let clean_state =
  { volatile = false; dirty_out = true; vkeys = SS.empty; obligation = None }

(* [summarize ~emit cg lookup func] walks [func] under the
   interprocedural summaries [lookup] and returns the function's own
   transfer.  [emit] receives findings; {!Fixpoint.solve} keeps those of
   each function's last walk. *)
let summarize ~(emit : Finding.t -> unit) (cg : Callgraph.t)
    (lookup : string -> summary) (func : Callgraph.func) : summary =
  let fname = Callgraph.name func in
  let finding rule loc msg =
    emit (Finding.v ~rule ~file:func.Callgraph.file ~loc ~func:fname msg)
  in
  let annot = func.Callgraph.annot in
  let wrote = ref false in
  let flushed = ref false in
  let r17_fired = ref false in
  let resolve f =
    match (strip f).pexp_desc with
    | Pexp_ident { txt; _ } -> Callgraph.resolve cg ~caller:func (flatten txt)
    | _ -> None
  in
  (* Callee contract at a call site: the annotation wins when present,
     otherwise the inferred summary.  [@flushes]/[@durable] promise a
     full barrier before return; [@orders_after] promises volatile
     writes the caller must order. *)
  let callee_transfer (g : Callgraph.func) =
    let a = g.Callgraph.annot in
    if a.Annot.flushes <> [] || a.Annot.durable then
      { out_clean = false; out_dirty = false; writes = true; flushes = true }
    else if a.Annot.orders_after <> [] then
      { out_clean = true; out_dirty = true; writes = true; flushes = false }
    else lookup (Callgraph.name g)
  in
  let barrier () =
    flushed := true;
    { volatile = false; dirty_out = false; vkeys = SS.empty; obligation = None }
  in
  let r16_check st loc pay what =
    if st.volatile then begin
      let overlap = SS.inter pay st.vkeys in
      if not (SS.is_empty overlap) then
        finding Finding.R16_unordered_write loc
          (Fmt.str
             "%s depends on %s, still volatile from an earlier write — a crash \
              can keep this write and lose what it derives from (no barrier in \
              between)"
             what
             (String.concat ", " (SS.elements overlap)))
    end
  in
  let r17_check ~lam st loc =
    if annot.Annot.durable && (not lam) && st.volatile then begin
      r17_fired := true;
      finding Finding.R17_ack_before_durable loc
        "Ok acknowledged while writes are still cache-volatile in a @durable \
         function — a crash after this ack loses acknowledged data"
    end
  in
  let join_state a b =
    {
      volatile = a.volatile || b.volatile;
      dirty_out = a.dirty_out || b.dirty_out;
      vkeys = SS.union a.vkeys b.vkeys;
      obligation = (match a.obligation with Some _ -> a.obligation | None -> b.obligation);
    }
  in
  let join pre = function
    | [] -> pre (* every branch diverges *)
    | b :: rest -> List.fold_left join_state b rest
  in
  let is_ok_construct lid =
    match List.rev (flatten lid) with "Ok" :: _ -> true | _ -> false
  in
  let rec walk ~lam st e : state =
    match e.pexp_desc with
    | Pexp_constraint (e', _) | Pexp_open (_, e') | Pexp_newtype (_, e') ->
        walk ~lam st e'
    | Pexp_apply (f, args) -> (
        match classify f args with
        | P_write h ->
            let st = args_walk ~lam st args in
            let pay = payload_keys ~handle:h args in
            r16_check st e.pexp_loc pay "write";
            wrote := true;
            { st with volatile = true; dirty_out = true; vkeys = SS.union st.vkeys pay }
        | P_fua h ->
            let st = args_walk ~lam st args in
            r16_check st e.pexp_loc (payload_keys ?handle:h args) "FUA write";
            wrote := true;
            (* durable on ack and ordered only with itself: the device
               stays as it was, and this payload is safe to depend on *)
            st
        | P_flush ->
            let (_ : state) = args_walk ~lam st args in
            barrier ()
        | P_read _ ->
            (* the taint lands on the binding, in [bind_walk] *)
            args_walk ~lam st args
        | P_none -> (
            let st = walk ~lam st f in
            let st = args_walk ~lam st args in
            match resolve f with
            | Some g when full_call g.Callgraph.body args ->
                let tr = callee_transfer g in
                let pay =
                  if tr.writes then begin
                    (* callee handle convention: first positional arg *)
                    let pay = payload_keys ?handle:(Ownset.nth_nolabel 0 args) args in
                    r16_check st e.pexp_loc pay
                      (Fmt.str "write through %s" (Callgraph.name g));
                    wrote := true;
                    pay
                  end
                  else SS.empty
                in
                let volatile' = if st.volatile then tr.out_dirty else tr.out_clean in
                let dirty_out' = if st.dirty_out then tr.out_dirty else tr.out_clean in
                if tr.flushes then flushed := true;
                if not volatile' then
                  (* the callee's barrier covered everything pending *)
                  { volatile = false; dirty_out = dirty_out'; vkeys = SS.empty;
                    obligation = None }
                else
                  {
                    volatile = true;
                    dirty_out = dirty_out';
                    vkeys = SS.union st.vkeys pay;
                    obligation =
                      (if g.Callgraph.annot.Annot.orders_after <> [] then
                         Some (e.pexp_loc, Callgraph.name g)
                       else st.obligation);
                  }
            | Some _ (* partial application: a closure, not a call *) | None -> st))
    | Pexp_construct (lid, payload) ->
        let st = match payload with Some p -> walk ~lam st p | None -> st in
        if is_ok_construct lid.txt then r17_check ~lam st e.pexp_loc;
        st
    | Pexp_sequence (a, b) -> walk ~lam (walk ~lam st a) b
    | Pexp_let (_, vbs, body) ->
        let st =
          List.fold_left (fun st vb -> bind_walk ~lam st vb.pvb_pat vb.pvb_expr) st vbs
        in
        walk ~lam st body
    | Pexp_letop { let_; ands; body } ->
        let st = bind_walk ~lam st let_.pbop_pat let_.pbop_exp in
        let st =
          List.fold_left (fun st a -> bind_walk ~lam st a.pbop_pat a.pbop_exp) st ands
        in
        walk ~lam st body
    | Pexp_ifthenelse (cond, then_, else_) ->
        let st = walk ~lam st cond in
        let branches =
          then_ :: Option.to_list else_
          |> List.filter_map (fun b ->
                 let after = walk ~lam st b in
                 if Checks.diverges b then None else Some after)
        in
        let branches = if else_ = None then st :: branches else branches in
        join st branches
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        let st = walk ~lam st scrut in
        (* [match io.read k with Ok prev -> ...] binds volatile content just
           like [let* prev = read k in ...] does: every variable the case
           patterns bind is tied to the scrutinee. *)
        let scrut_volatile = st.volatile && tied_to_volatile st scrut in
        let branches =
          List.filter_map
            (fun c ->
              let st_c =
                if scrut_volatile then
                  { st with
                    vkeys =
                      List.fold_left (fun ks v -> SS.add v ks) st.vkeys
                        (Ownset.pattern_vars c.pc_lhs);
                  }
                else st
              in
              Option.iter (fun g -> ignore (walk ~lam st_c g : state)) c.pc_guard;
              let after = walk ~lam st_c c.pc_rhs in
              if Checks.diverges c.pc_rhs then None else Some after)
            cases
        in
        join st branches
    | Pexp_fun (_, default, _, inner) ->
        (* a deferred lambda: a function body in its own right, walked
           from a fresh state for findings only *)
        Option.iter (fun d -> ignore (walk ~lam st d : state)) default;
        ignore (walk ~lam:true clean_state (Ownset.strip_funs inner) : state);
        st
    | Pexp_function cases ->
        List.iter
          (fun c ->
            Option.iter (fun g -> ignore (walk ~lam:true clean_state g : state)) c.pc_guard;
            ignore (walk ~lam:true clean_state c.pc_rhs : state))
          cases;
        st
    | Pexp_while (cond, body) ->
        let st = walk ~lam st cond in
        join st [ st; walk ~lam st body ]
    | Pexp_for (_, lo, hi, _, body) ->
        let st = walk ~lam (walk ~lam st lo) hi in
        join st [ st; walk ~lam st body ]
    | _ ->
        let acc = ref st in
        iter_children (fun child -> acc := walk ~lam !acc child) e;
        !acc
  (* A closure in argument position may run right here ([write_all],
     [List.iter], retry runners): its device effects are the call's. *)
  and args_walk ~lam st args =
    List.fold_left
      (fun st (_, a) ->
        match (strip a).pexp_desc with
        | Pexp_fun _ -> walk ~lam:true st (Ownset.strip_funs a)
        | Pexp_function cases ->
            List.fold_left
              (fun acc c -> join_state acc (walk ~lam:true st c.pc_rhs))
              st cases
        | _ -> walk ~lam st a)
      st args
  (* A let binding: walk the RHS, then decide whether the bound name is
     tied to volatile content — read back from the device while volatile
     (the Wcache taint) or derived from an already-tied key. *)
  and bind_walk ~lam st pat rhs =
    let st = walk ~lam st rhs in
    match pat.ppat_desc with
    | Ppat_var { txt; _ }
    | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
        if st.volatile && tied_to_volatile st rhs then
          { st with vkeys = SS.add txt st.vkeys }
        else { st with vkeys = SS.remove txt st.vkeys }
    | _ -> st
  (* Is this expression's value tied to still-volatile device content —
     read back from the device while dirty (the Wcache taint), or derived
     from a name already so tied? *)
  and tied_to_volatile st e =
    let read_back =
      match (strip e).pexp_desc with
      | Pexp_apply (f, args) -> (
          match classify f args with P_read _ -> true | _ -> false)
      | _ -> false
    in
    read_back || not (SS.is_empty (SS.inter (Ownset.mentioned_keys e) st.vkeys))
  in
  let body = Ownset.strip_funs func.Callgraph.body in
  let st_final = walk ~lam:false clean_state body in
  (* R17 trigger 2: some path reaches return still volatile.  Skipped
     when trigger 1 already named the precise ack site. *)
  if annot.Annot.durable && st_final.volatile && not !r17_fired then
    finding Finding.R17_ack_before_durable func.Callgraph.loc
      (Fmt.str "@durable %s may return with writes still cache-volatile (no barrier on \
                some path)"
         fname);
  (* R18: an @orders_after obligation was acquired, never covered by a
     barrier, and this function states no durability contract of its own. *)
  let has_contract =
    annot.Annot.flushes <> [] || annot.Annot.durable || annot.Annot.orders_after <> []
  in
  (match st_final.obligation with
  | Some (loc, callee) when st_final.volatile && not has_contract ->
      finding Finding.R18_barrier_elision loc
        (Fmt.str
           "%s forwards %s, which re-exports its flush obligation (@orders_after), \
            but neither flushes nor re-exports it"
           fname callee)
  | _ -> ());
  {
    out_clean = st_final.volatile;
    out_dirty = st_final.dirty_out;
    writes = !wrote;
    flushes = !flushed;
  }
