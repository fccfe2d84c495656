(** Instruction set of the in-kernel extension VM — a miniature of eBPF's
    expressiveness trade-off: forward-only jumps mean every verified
    program terminates, and also that no complex kernel component can be
    written in it (the paper's related-work contrast). *)

type reg =
  | R0  (** return value *)
  | R1  (** context length on entry *)
  | R2
  | R3
  | R4
  | R5
  | R6
  | R7

val all_regs : reg list
val reg_index : reg -> int
val reg_to_string : reg -> string

type alu =
  | Add
  | Sub
  | Mul
  | Div  (** traps on zero divisor *)
  | And
  | Or
  | Xor
  | Lsh
  | Rsh

type cond =
  | Eq
  | Ne
  | Lt
  | Gt
  | Le
  | Ge

type t =
  | Mov_imm of reg * int
  | Mov_reg of reg * reg
  | Alu_imm of alu * reg * int
  | Alu_reg of alu * reg * reg
  | Ld_ctx of reg * reg * int
      (** load one byte of the context buffer at \[src + imm\] *)
  | Jmp of int  (** relative, forward only *)
  | Jcond of cond * reg * int * int  (** compare register to immediate *)
  | Exit

type program = t array

val pp_program : Format.formatter -> program -> unit
