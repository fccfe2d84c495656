(** The interface modeling language of §4.4.

    Abstract states are immutable values; operations are pure step
    functions; nondeterministic specifications are relations over
    before/after pairs.  An implementation is verified by {e refinement}:
    each concrete operation, viewed through an interpretation function,
    must be a valid transition of the model ({!Krefine}). *)

type ('st, 'op, 'res) step = 'st -> 'op -> 'st * 'res
(** Deterministic specification: a pure step function. *)

type ('st, 'op, 'res) relation = 'st -> 'op -> 'st * 'res -> bool
(** Nondeterministic specification: allowed (state, op, state', result). *)

val relation_of_step :
  state_equal:('st -> 'st -> bool) ->
  result_equal:('res -> 'res -> bool) ->
  ('st, 'op, 'res) step ->
  ('st, 'op, 'res) relation
(** View a deterministic spec as the singleton relation it denotes. *)

val run_trace :
  ('st, 'op, 'res) step -> 'st -> 'op list -> 'st list * 'res list * 'st
(** [run_trace step init ops] is [(states, results, final)] where [states]
    includes [init] and every intermediate state (length [ops]+1). *)
