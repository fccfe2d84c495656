(** The extension VM: runs only verifier-approved programs over a
    read-only context buffer; every remaining hazard (out-of-bounds
    context access, division by zero) traps back to the kernel as an
    error instead of corrupting it. *)

type trap =
  | Ctx_out_of_bounds of { pc : int; offset : int; len : int }
  | Division_by_zero of { pc : int }
  | Fuel_exhausted  (** unreachable for verified programs *)

val trap_to_string : trap -> string

type loaded
(** A program that passed the verifier. *)

val load : Insn.program -> (loaded, Verifier.rejection) result
(** Verify a copy of the program: editing the array afterwards does not
    change what runs. *)

val exec : loaded -> ctx:string -> (int, trap) result
(** Run over a context buffer; returns r0.  Runs of one program must not
    overlap: they share its register file. *)

exception Trap of trap

val run : loaded -> ctx:string -> int
(** {!exec} for hooks on a hot path: r0, allocating nothing.
    @raise Trap where {!exec} returns [Error]. *)

val stats : loaded -> int * int
(** (runs, total instructions executed). *)
