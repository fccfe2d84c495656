(* The per-function ownership-lifetime walk kown's interprocedural
   analysis is built from — klint's analogue of what {!Lockset} is to
   kracer.

   For one function body, thread a map from binding keys (idents and
   field chains, {!Rules.expr_key}) to ownership states:

     Owned    a fresh allocation this function is responsible for
              ([local]: allocated here; [escaped]: stored/shared, so
              some other structure may now free it)
     Borrowed a capability lent for the duration of a closure
              ([Checker.lend_shared]/[lend_exclusive]), or a parameter
              declared [@borrows]
     Freed    released ([Kmem.free]/[Checker.free])
     Moved    consumed ([Checker.transfer], or passed to a call whose
              contract/summary says [@consumes] that parameter)
     Revoked  capability revoked ([Cap.revoke])

   Branch joins are MAY-unions biased towards the lethal states: a key
   freed on any surviving path counts as freed afterwards — the right
   polarity for bug-finding, the opposite of lockset's must-intersection.
   Closures are walked at their definition point with updates discarded
   (the run-immediately idiom), except lend closures, whose parameter is
   the borrow being policed.

   Four rules are emitted:

     R8   use (or store/escape) of a Freed/Moved key
     R9   free of a Freed/Moved key
     R10  (1) an [Error _] construct reached while a locally allocated,
              unescaped key is still Owned — the classic forgotten
              kfree on the error path;
          (2) at an if/else join: one branch frees a key and performs
              the same non-empty teardown (Hashtbl.remove drops) as its
              sibling, which does not free it — the "forgot the kfree in
              one arm" shape, caught without path explosion
     R11  a borrow stored or returned beyond its lend scope, a borrowed
          capability freed, or use of a revoked capability

   Unresolved calls are assumed borrowing (they only escape Owned
   arguments) — the documented unsoundness the runtime kmem-event
   reconciliation exists to catch. *)

open Parsetree
open Rules
module SM = Map.Make (String)
module SS = Set.Make (String)

type own_state =
  | Owned of { local : bool; escaped : bool }
  | Borrowed
  | Freed
  | Moved
  | Revoked

(* The per-function contract kown propagates over the call graph. *)
type summary = {
  consumes : SS.t;  (** parameter names freed/moved by a call *)
  returns_owned : bool;  (** result is a fresh owned object *)
}

let empty_summary = { consumes = SS.empty; returns_owned = false }

let summary_equal a b =
  SS.equal a.consumes b.consumes && Bool.equal a.returns_owned b.returns_owned

(* Primitive classification ---------------------------------------------- *)

type prim =
  | P_kmem_alloc  (** returns owned; no subject *)
  | P_kmem_use  (** read/write: subject = 1st positional arg *)
  | P_kmem_free
  | P_ck_alloc  (** returns owned *)
  | P_ck_use  (** read/write/fill/size: subject = 2nd positional arg *)
  | P_ck_free
  | P_ck_transfer  (** consumes subject, returns owned *)
  | P_ck_lend  (** lend_shared/lend_exclusive: borrow for ~f's duration *)
  | P_cap_revoke
  | P_neutral  (** is_live, check_leaks, ...: no ownership effect *)
  | P_none

let classify f =
  if ident_matches ~penult:"Kmem" ~last:"alloc" f then P_kmem_alloc
  else if
    ident_matches ~penult:"Kmem" ~last:"read" f
    || ident_matches ~penult:"Kmem" ~last:"write" f
  then P_kmem_use
  else if ident_matches ~penult:"Kmem" ~last:"free" f then P_kmem_free
  else if ident_matches ~penult:"Kmem" ~last:"is_live" f then P_neutral
  else if ident_matches ~penult:"Checker" ~last:"alloc" f then P_ck_alloc
  else if
    ident_matches ~penult:"Checker" ~last:"read" f
    || ident_matches ~penult:"Checker" ~last:"write" f
    || ident_matches ~penult:"Checker" ~last:"fill" f
    || ident_matches ~penult:"Checker" ~last:"size" f
  then P_ck_use
  else if ident_matches ~penult:"Checker" ~last:"free" f then P_ck_free
  else if ident_matches ~penult:"Checker" ~last:"transfer" f then P_ck_transfer
  else if
    ident_matches ~penult:"Checker" ~last:"lend_shared" f
    || ident_matches ~penult:"Checker" ~last:"lend_exclusive" f
  then P_ck_lend
  else if ident_matches ~penult:"Cap" ~last:"revoke" f then P_cap_revoke
  else if ident_matches ~penult:"Checker" ~last:"check_leaks" f then P_neutral
  else P_none

(* The nth positional (unlabelled) argument: Kmem primitives take the
   subject first, Checker primitives take the checker first and the
   capability second. *)
let nth_nolabel n args =
  let rec go n = function
    | [] -> None
    | (Asttypes.Nolabel, a) :: rest -> if n = 0 then Some a else go (n - 1) rest
    | _ :: rest -> go n rest
  in
  go n args

let labelled_arg name args =
  List.find_map
    (fun (l, a) ->
      match l with
      | Asttypes.Labelled n when String.equal n name -> Some a
      | _ -> None)
    args

let subject_arg prim args =
  match prim with
  | P_kmem_use | P_kmem_free | P_cap_revoke -> nth_nolabel 0 args
  | P_ck_use | P_ck_free | P_ck_transfer | P_ck_lend -> nth_nolabel 1 args
  | _ -> None

(* Syntactic helpers ------------------------------------------------------ *)

let tracked k = not (String.equal k "<expr>")

(* Every ident/field-chain key an expression mentions — the store and
   escape checks scan the stored value with this. *)
let mentioned_keys e =
  let acc = ref SS.empty in
  let rec go e =
    (match (strip e).pexp_desc with
    | Pexp_ident _ | Pexp_field _ ->
        let k = expr_key e in
        if tracked k then acc := SS.add k !acc
    | _ -> ());
    iter_children go e
  in
  go e;
  !acc

(* Parameters of a binding: the [Pexp_fun] chain, labels preserved so
   call-site arguments can be matched positionally and by label. *)
let rec params_of e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, inner) ->
      let name =
        match pat.ppat_desc with
        | Ppat_var { txt; _ }
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
            Some txt
        | _ -> None
      in
      (lbl, name) :: params_of inner
  | Pexp_newtype (_, inner) | Pexp_constraint (inner, _) -> params_of inner
  | _ -> []

let rec strip_funs e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, inner) | Pexp_newtype (_, inner) | Pexp_constraint (inner, _) ->
      strip_funs inner
  | _ -> e

(* Match call-site arguments to the callee's parameter names: positional
   arguments pair with positional parameters in order, labelled ones by
   label. *)
let match_args params args =
  let pos_params =
    List.filter_map
      (fun (l, n) -> match l with Asttypes.Nolabel -> Some n | _ -> None)
      params
  in
  let lbl_param name =
    List.find_map
      (fun (l, n) ->
        match l with
        | Asttypes.Labelled l' | Asttypes.Optional l' when String.equal l' name -> n
        | _ -> None)
      params
  in
  let rec go pos = function
    | [] -> []
    | (Asttypes.Nolabel, a) :: rest -> (
        match pos with
        | p :: pos' -> (
            match p with
            | Some name -> (name, a) :: go pos' rest
            | None -> go pos' rest)
        | [] -> go [] rest)
    | ((Asttypes.Labelled n | Asttypes.Optional n), a) :: rest -> (
        match lbl_param n with
        | Some name -> (name, a) :: go pos rest
        | None -> go pos rest)
  in
  go pos_params args

(* All variable names a pattern binds — for propagating Borrowed through
   [match borrowed with [b] -> ...]. *)
let pattern_vars p =
  let acc = ref [] in
  let pat_hook it p =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } -> acc := txt :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat = pat_hook } in
  it.pat it p;
  !acc

(* Tail expressions of a body, through lets, sequences and branches. *)
let rec tails e =
  match e.pexp_desc with
  | Pexp_let (_, _, b)
  | Pexp_sequence (_, b)
  | Pexp_open (_, b)
  | Pexp_constraint (b, _)
  | Pexp_newtype (_, b) ->
      tails b
  | Pexp_ifthenelse (_, t, e') ->
      tails t @ (match e' with Some x -> tails x | None -> [])
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.concat_map (fun c -> tails c.pc_rhs) cases
  | _ -> [ e ]

(* R10 trigger 2 raw material: keys a subtree may free, and the
   Hashtbl.remove teardown drops it performs (keyed container+entry). *)
let frees_and_drops resolve_consumes e =
  let frees = ref SS.empty in
  let drops = ref SS.empty in
  let rec go e =
    (match (strip e).pexp_desc with
    | Pexp_apply (f, args) -> (
        match classify f with
        | (P_kmem_free | P_ck_free | P_ck_transfer) as p -> (
            match subject_arg p args with
            | Some s when tracked (expr_key s) -> frees := SS.add (expr_key s) !frees
            | _ -> ())
        | P_none when ident_matches ~penult:"Hashtbl" ~last:"remove" f -> (
            match args with
            | (_, c) :: (_, a) :: _ ->
                drops := SS.add (expr_key c ^ " " ^ expr_key a) !drops
            | _ -> ())
        | P_none ->
            (* keys consumed through a summarized callee count as frees *)
            List.iter
              (fun k -> if tracked k then frees := SS.add k !frees)
              (resolve_consumes f args)
        | _ -> ())
    | _ -> ());
    iter_children go e
  in
  go e;
  (!frees, !drops)

(* The walk -------------------------------------------------------------- *)

(* [summarize ~emit cg lookup func] walks [func] under the
   interprocedural summaries [lookup] and returns the function's own
   summary.  [emit] receives findings; {!Fixpoint.solve} keeps those of
   each function's last walk. *)
let summarize ~(emit : Finding.t -> unit) (cg : Callgraph.t)
    (lookup : string -> summary) (func : Callgraph.func) : summary =
  let fname = Callgraph.name func in
  let finding rule loc msg =
    emit (Finding.v ~rule ~file:func.Callgraph.file ~loc ~func:fname msg)
  in
  let params = params_of func.Callgraph.body in
  let annot = func.Callgraph.annot in
  let resolve f =
    match (strip f).pexp_desc with
    | Pexp_ident { txt; _ } -> Callgraph.resolve cg ~caller:func (flatten txt)
    | _ -> None
  in
  (* Callee contract at a call site: the annotation wins when present,
     otherwise the inferred summary. *)
  let callee_consumes g =
    let a = g.Callgraph.annot in
    if a.Annot.consumes <> [] || a.Annot.borrows <> [] then SS.of_list a.Annot.consumes
    else (lookup (Callgraph.name g)).consumes
  in
  let callee_returns_owned g =
    g.Callgraph.annot.Annot.returns_owned || (lookup (Callgraph.name g)).returns_owned
  in
  let resolve_consumes f args =
    match resolve f with
    | None -> []
    | Some g ->
        let consumed = callee_consumes g in
        match_args (params_of g.Callgraph.body) args
        |> List.filter_map (fun (p, a) ->
               if SS.mem p consumed then Some (expr_key a) else None)
  in
  (* Does an expression produce a fresh owned object? *)
  let rec produces_owned e =
    match (strip e).pexp_desc with
    | Pexp_apply (f, _) -> (
        match classify f with
        | P_kmem_alloc | P_ck_alloc | P_ck_transfer -> true
        | P_none -> (
            match resolve f with Some g -> callee_returns_owned g | None -> false)
        | _ -> false)
    | Pexp_record (fields, _) -> List.exists (fun (_, v) -> produces_owned v) fields
    | Pexp_tuple es -> List.exists produces_owned es
    | Pexp_construct (_, Some arg) -> produces_owned arg
    | _ -> false
  in
  (* State checks --------------------------------------------------------- *)
  let use_check st what e loc =
    let k = expr_key e in
    if tracked k then
      match SM.find_opt k st with
      | Some Freed ->
          finding Finding.R8_use_after_free loc
            (Fmt.str "%s of %s after it was freed" what k)
      | Some Moved ->
          finding Finding.R8_use_after_free loc
            (Fmt.str "%s of %s after a consuming call moved it" what k)
      | Some Revoked ->
          finding Finding.R11_borrow_escape loc
            (Fmt.str "%s of %s through a revoked capability" what k)
      | _ -> ()
  in
  let free_check st e loc =
    let k = expr_key e in
    if tracked k then
      match SM.find_opt k st with
      | Some (Freed | Moved) ->
          finding Finding.R9_double_free loc (Fmt.str "%s freed twice" k)
      | Some Borrowed ->
          finding Finding.R11_borrow_escape loc
            (Fmt.str "%s is only borrowed here and must not be freed" k)
      | _ -> ()
  in
  (* A value being stored (field/ref assignment) or built into a
     structure: freed keys must not escape, borrows must not outlive
     their lend, and owned keys are no longer this function's sole
     responsibility. *)
  let check_store st rhs loc =
    SS.fold
      (fun k st ->
        match SM.find_opt k st with
        | Some Freed ->
            finding Finding.R8_use_after_free loc
              (Fmt.str "freed pointer %s stored and escapes (dangling)" k);
            st
        | Some Moved ->
            finding Finding.R8_use_after_free loc
              (Fmt.str "moved (consumed) value %s stored and escapes" k);
            st
        | Some Borrowed ->
            finding Finding.R11_borrow_escape loc
              (Fmt.str "borrow %s stored beyond its lend scope" k);
            st
        | Some (Owned o) -> SM.add k (Owned { o with escaped = true }) st
        | Some Revoked | None -> st)
      (mentioned_keys rhs) st
  in
  let escape_only st e =
    SS.fold
      (fun k st ->
        match SM.find_opt k st with
        | Some (Owned o) -> SM.add k (Owned { o with escaped = true }) st
        | _ -> st)
      (mentioned_keys e) st
  in
  (* R10 trigger 1: an [Error _] construct is an error return; anything
     still Owned, locally allocated and unescaped leaks on this path. *)
  let error_return_check st loc =
    SM.iter
      (fun k s ->
        match s with
        | Owned { local = true; escaped = false } ->
            finding Finding.R10_error_leak loc
              (Fmt.str "owned allocation %s reaches this Error return without free or transfer"
                 k)
        | _ -> ())
      st
  in
  let join_state a b =
    match (a, b) with
    | Freed, _ | _, Freed -> Freed
    | Moved, _ | _, Moved -> Moved
    | Revoked, _ | _, Revoked -> Revoked
    | Borrowed, _ | _, Borrowed -> Borrowed
    | Owned x, Owned y ->
        Owned { local = x.local && y.local; escaped = x.escaped || y.escaped }
  in
  let join pre = function
    | [] -> pre (* every branch diverges *)
    | b :: rest ->
        List.fold_left (SM.union (fun _ x y -> Some (join_state x y))) b rest
  in
  let is_error_construct lid =
    match List.rev (flatten lid) with "Error" :: _ -> true | _ -> false
  in
  let rec walk st e : own_state SM.t =
    match e.pexp_desc with
    | Pexp_constraint (e', _) | Pexp_open (_, e') | Pexp_newtype (_, e') -> walk st e'
    | Pexp_apply (f, args) -> (
        let prim = classify f in
        match prim with
        | P_kmem_alloc | P_ck_alloc | P_neutral -> args_walk st args
        | P_kmem_use | P_ck_use ->
            let st = args_walk st args in
            (match subject_arg prim args with
            | Some s -> use_check st (if prim = P_kmem_use then "access" else "access") s e.pexp_loc
            | None -> ());
            st
        | P_kmem_free | P_ck_free ->
            let st = args_walk st args in
            (match subject_arg prim args with
            | Some s ->
                free_check st s e.pexp_loc;
                let k = expr_key s in
                if tracked k then SM.add k Freed st else st
            | None -> st)
        | P_ck_transfer ->
            let st = args_walk st args in
            (match subject_arg prim args with
            | Some s ->
                free_check st s e.pexp_loc;
                let k = expr_key s in
                if tracked k then SM.add k Moved st else st
            | None -> st)
        | P_cap_revoke -> (
            let st = args_walk st args in
            match subject_arg prim args with
            | Some s ->
                let k = expr_key s in
                if tracked k then SM.add k Revoked st else st
            | None -> st)
        | P_ck_lend ->
            let non_f = List.filter (fun (l, _) -> l <> Asttypes.Labelled "f") args in
            let st = args_walk st non_f in
            (match subject_arg prim args with
            | Some s -> use_check st "lend" s e.pexp_loc
            | None -> ());
            (match labelled_arg "f" args with
            | Some clo -> lend_closure st clo
            | None -> ());
            st
        | P_none -> (
            let st = walk st f in
            let st = args_walk st args in
            match resolve f with
            | Some g ->
                let consumed = callee_consumes g in
                List.fold_left
                  (fun st (p, a) ->
                    if SS.mem p consumed then begin
                      let k = expr_key a in
                      (match SM.find_opt k st with
                      | Some (Freed | Moved) ->
                          finding Finding.R9_double_free e.pexp_loc
                            (Fmt.str "%s already freed, but %s consumes it" k
                               (Callgraph.name g))
                      | Some Borrowed ->
                          finding Finding.R11_borrow_escape e.pexp_loc
                            (Fmt.str "borrow %s passed to consuming call %s" k
                               (Callgraph.name g))
                      | _ -> ());
                      if tracked k then SM.add k Moved st else st
                    end
                    else st)
                  st
                  (match_args (params_of g.Callgraph.body) args)
            | None ->
                (* unknown callee: assume borrowing, but it may retain a
                   reference — owned arguments are no longer unescaped *)
                List.fold_left (fun st (_, a) -> escape_only st a) st args))
    | Pexp_setfield (target, lid, rhs) ->
        let st = walk st target in
        let st = walk st rhs in
        let st = check_store st rhs e.pexp_loc in
        (* strong update: whatever the field held before, it holds the
           new value now — kills a stale Freed from a free-then-replace *)
        let tk = expr_key target ^ "." ^ String.concat "." (flatten lid.txt) in
        if tracked (expr_key target) then SM.remove tk st else st
    | Pexp_setinstvar ({ txt; _ }, rhs) ->
        let st = walk st rhs in
        let st = check_store st rhs e.pexp_loc in
        SM.remove txt st
    (* Building a value (construct/tuple/record) is not by itself an
       escape for freed or borrowed keys — the structure may stay inside
       the current scope (contract mediation conses borrows legally).
       It does end an Owned key's sole-responsibility claim, and an
       [Error _] construct is the R10 trigger-1 checkpoint. *)
    | Pexp_construct (lid, payload) ->
        let st = match payload with Some p -> walk st p | None -> st in
        let st = match payload with Some p -> escape_only st p | None -> st in
        if is_error_construct lid.txt then error_return_check st e.pexp_loc;
        st
    | Pexp_tuple es ->
        let st = List.fold_left walk st es in
        List.fold_left escape_only st es
    | Pexp_record (fields, base) ->
        let st = Option.fold ~none:st ~some:(walk st) base in
        let st = List.fold_left (fun st (_, v) -> walk st v) st fields in
        List.fold_left (fun st (_, v) -> escape_only st v) st fields
    | Pexp_sequence (a, b) -> walk (walk st a) b
    | Pexp_let (_, vbs, body) ->
        let st =
          List.fold_left
            (fun st vb ->
              let st = walk st vb.pvb_expr in
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ }
              | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
                  if produces_owned vb.pvb_expr then
                    SM.add txt (Owned { local = true; escaped = false }) st
                  else begin
                    (* alias: the binding takes the RHS key's state *)
                    let rk = expr_key vb.pvb_expr in
                    match SM.find_opt rk st with
                    | Some s when tracked rk -> SM.add txt s st
                    | _ -> SM.remove txt st
                  end
              | _ -> st)
            st vbs
        in
        walk st body
    | Pexp_ifthenelse (cond, then_, else_) ->
        let st = walk st cond in
        (* R10 trigger 2: a free present in one arm, absent in its
           sibling performing the same non-empty teardown *)
        (match else_ with
        | Some el ->
            let fa, da = frees_and_drops resolve_consumes then_ in
            let fb, db = frees_and_drops resolve_consumes el in
            if SS.equal da db && not (SS.is_empty da) then begin
              SS.iter
                (fun k ->
                  if not (SS.mem k fb) then
                    finding Finding.R10_error_leak el.pexp_loc
                      (Fmt.str
                         "sibling branch frees %s after the same teardown; this branch leaks it"
                         k))
                (SS.diff fa fb);
              SS.iter
                (fun k ->
                  if not (SS.mem k fa) then
                    finding Finding.R10_error_leak then_.pexp_loc
                      (Fmt.str
                         "sibling branch frees %s after the same teardown; this branch leaks it"
                         k))
                (SS.diff fb fa)
            end
        | None -> ());
        let branches =
          (then_ :: Option.to_list else_)
          |> List.filter_map (fun b ->
                 let after = walk st b in
                 if Checks.diverges b then None else Some after)
        in
        let branches = if else_ = None then st :: branches else branches in
        join st branches
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        let st = walk st scrut in
        (* matching on a borrowed value (e.g. the capability list a
           lend_shared closure receives) borrows its components *)
        let scrut_borrowed =
          tracked (expr_key scrut) && SM.find_opt (expr_key scrut) st = Some Borrowed
        in
        let branches =
          List.filter_map
            (fun c ->
              let st =
                if scrut_borrowed then
                  List.fold_left
                    (fun st v -> SM.add v Borrowed st)
                    st (pattern_vars c.pc_lhs)
                else st
              in
              Option.iter (fun g -> ignore (walk st g : own_state SM.t)) c.pc_guard;
              let after = walk st c.pc_rhs in
              if Checks.diverges c.pc_rhs then None else Some after)
            cases
        in
        join st branches
    | Pexp_fun (_, default, _, inner) ->
        Option.iter (fun d -> ignore (walk st d : own_state SM.t)) default;
        ignore (walk st inner : own_state SM.t);
        st
    | Pexp_function cases ->
        List.iter
          (fun c ->
            Option.iter (fun g -> ignore (walk st g : own_state SM.t)) c.pc_guard;
            ignore (walk st c.pc_rhs : own_state SM.t))
          cases;
        st
    | Pexp_while (cond, body) | Pexp_for (_, _, cond, _, body) ->
        ignore (walk st cond : own_state SM.t);
        ignore (walk st body : own_state SM.t);
        st
    | _ ->
        let acc = ref st in
        iter_children (fun child -> acc := walk !acc child) e;
        !acc
  and args_walk st args = List.fold_left (fun st (_, a) -> walk st a) st args
  (* A lend closure: its parameter is the borrow.  The body is walked
     with the parameter Borrowed; the closure's tail value must not
     mention the borrow (R11: returned beyond the lend scope). *)
  and lend_closure st clo =
    match (strip clo).pexp_desc with
    | Pexp_fun (_, _, pat, body) ->
        let st' =
          List.fold_left (fun st v -> SM.add v Borrowed st) st (pattern_vars pat)
        in
        let st_end = walk st' body in
        List.iter
          (fun tail ->
            let rec borrowed_in t =
              match (strip t).pexp_desc with
              | Pexp_ident _ | Pexp_field _ ->
                  let k = expr_key t in
                  tracked k && SM.find_opt k st_end = Some Borrowed
              | Pexp_tuple es -> List.exists borrowed_in es
              | Pexp_construct (_, Some a) -> borrowed_in a
              | Pexp_record (fields, _) -> List.exists (fun (_, v) -> borrowed_in v) fields
              | _ -> false
            in
            if borrowed_in tail then
              finding Finding.R11_borrow_escape tail.pexp_loc
                (Fmt.str "borrow returned from its lend scope in %s" fname))
          (tails body)
    | _ -> ignore (walk st clo : own_state SM.t)
  in
  (* Entry state: parameters declared @borrows start Borrowed; everything
     else is an unknown non-local the walk only starts tracking when it
     is allocated, freed or moved here. *)
  let st0 =
    List.fold_left
      (fun st (_, n) ->
        match n with
        | Some n when List.mem n annot.Annot.borrows -> SM.add n Borrowed st
        | _ -> st)
      SM.empty params
  in
  let body = strip_funs func.Callgraph.body in
  let st_final = walk st0 body in
  let inferred_consumes =
    List.fold_left
      (fun acc (_, n) ->
        match n with
        | Some n -> (
            match SM.find_opt n st_final with
            | Some (Freed | Moved) -> SS.add n acc
            | _ -> acc)
        | None -> acc)
      SS.empty params
  in
  let consumes =
    if annot.Annot.consumes <> [] || annot.Annot.borrows <> [] then
      SS.of_list annot.Annot.consumes
    else inferred_consumes
  in
  let returns_owned =
    annot.Annot.returns_owned
    || (params <> [] && List.exists produces_owned (tails body))
  in
  { consumes; returns_owned }
