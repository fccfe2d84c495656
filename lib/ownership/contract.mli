(** Explicit ownership contracts on module interfaces.

    The paper requires ownership contracts to be "made explicit in some way
    that the checker can understand and validate" (§4.3).  A contract
    declares, per operation and parameter, which of the three sharing
    models applies; {!apply} mediates a real call through {!Checker} so
    the declared contract is the enforced one. *)

type param_mode =
  | Move  (** model 1: ownership transfers to the callee *)
  | Borrow_exclusive  (** model 2: read/write for the call's duration *)
  | Borrow_shared  (** model 3: read-only for the call's duration *)

type param = private {
  param_name : string;
  mode : param_mode;
}

type op = private {
  op_name : string;
  params : param list;
}

type t = private {
  interface : string;
  ops : op list;
}

val v : interface:string -> op list -> t
val op : name:string -> (string * param_mode) list -> op

exception Unknown_op of { interface : string; op : string }
exception Arity_mismatch of { op : string; expected : int; got : int }

val apply :
  Checker.t ->
  t ->
  op:string ->
  callee:string ->
  args:Cap.t list ->
  f:(Cap.t list -> 'a) ->
  'a
(** [apply ck contract ~op ~callee ~args ~f] performs the declared
    transfers/lends for each argument and runs [f] with the callee-side
    capabilities (in parameter order).  Borrows end when [f] returns.
    @raise Unknown_op / Arity_mismatch on contract misuse. *)

val pp : Format.formatter -> t -> unit
