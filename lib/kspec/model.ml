(* The interface modeling language.

   The paper asks for models expressed in "a mathematical language with
   immutable objects and functions and relations over them".  We encode
   that directly: abstract states are immutable OCaml values, operations
   are pure step functions, and specifications-with-nondeterminism are
   relations (predicates over before/after pairs).  Verification of an
   implementation is then refinement: each concrete operation, viewed
   through an interpretation function, must be a valid transition of the
   model (see [Krefine]). *)

(* Deterministic specification: a pure step function. *)
type ('st, 'op, 'res) step = 'st -> 'op -> 'st * 'res

(* Nondeterministic specification: which (state, op, state', result)
   quadruples are allowed. *)
type ('st, 'op, 'res) relation = 'st -> 'op -> 'st * 'res -> bool

let relation_of_step ~state_equal ~result_equal (step : _ step) : _ relation =
 fun st op (st', res') ->
  let expected_st, expected_res = step st op in
  state_equal expected_st st' && result_equal expected_res res'

(* Run a trace through a deterministic spec, collecting intermediate
   states; useful both for tests and to compute the set of spec states a
   crash may legally recover to. *)
let run_trace (step : _ step) init ops =
  let states, results, last =
    List.fold_left
      (fun (states, results, st) op ->
        let st', res = step st op in
        (st' :: states, res :: results, st'))
      ([ init ], [], init) ops
  in
  (List.rev states, List.rev results, last)
