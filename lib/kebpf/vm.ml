(* The extension VM.

   Runs only verifier-approved programs ([load] couples the two), over a
   read-only context buffer.  Even then it is defensive: context loads are
   bounds-trapped, division by zero traps, and a fuel counter (which a
   verified program can never exhaust, since jumps only go forward) caps
   execution — traps return an error to the kernel instead of becoming
   kernel bugs, which is the whole point of the mechanism. *)

type trap =
  | Ctx_out_of_bounds of { pc : int; offset : int; len : int }
  | Division_by_zero of { pc : int }
  | Fuel_exhausted

let trap_to_string = function
  | Ctx_out_of_bounds { pc; offset; len } ->
      Printf.sprintf "ctx access at pc=%d: offset %d beyond length %d" pc offset len
  | Division_by_zero { pc } -> Printf.sprintf "division by zero at pc=%d" pc
  | Fuel_exhausted -> "fuel exhausted"

type loaded = {
  prog : Insn.program;
  dst : int array; (* by pc: the register an instruction writes or tests *)
  src : int array; (* by pc: the register it reads (0 if none) *)
  regs : int array; (* one run at a time per program *)
  mutable runs : int;
  mutable insns_executed : int;
}

(* Register operands decoded to indices once, at load. *)
let dst_reg = function
  | Insn.Mov_imm (d, _) | Mov_reg (d, _) | Alu_imm (_, d, _) | Alu_reg (_, d, _)
  | Ld_ctx (d, _, _) | Jcond (_, d, _, _) ->
      d
  | Jmp _ | Exit -> Insn.R0

let src_reg = function
  | Insn.Mov_reg (_, s) | Alu_reg (_, _, s) | Ld_ctx (_, s, _) -> s
  | Mov_imm _ | Alu_imm _ | Jmp _ | Jcond _ | Exit -> Insn.R0

(* The copy is what runs: a caller cannot edit a program once verified. *)
let load prog =
  let prog = Array.copy prog in
  match Verifier.check prog with
  | Ok () ->
      let index reg = Array.map (fun insn -> Insn.reg_index (reg insn)) prog in
      Ok
        {
          prog;
          dst = index dst_reg;
          src = index src_reg;
          regs = Array.make 8 0;
          runs = 0;
          insns_executed = 0;
        }
  | Error r -> Error r

let stats loaded = (loaded.runs, loaded.insns_executed)

exception Trap of trap

let alu op a b ~pc =
  match op with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.Mul -> a * b
  | Insn.Div -> if b = 0 then raise (Trap (Division_by_zero { pc })) else a / b
  | Insn.And -> a land b
  | Insn.Or -> a lor b
  | Insn.Xor -> a lxor b
  | Insn.Lsh -> a lsl (b land 62)
  | Insn.Rsh -> a lsr (b land 62)

let cond c a b =
  match c with
  | Insn.Eq -> a = b
  | Insn.Ne -> a <> b
  | Insn.Lt -> a < b
  | Insn.Gt -> a > b
  | Insn.Le -> a <= b
  | Insn.Ge -> a >= b

(* The interpreter loop allocates nothing: registers live in the
   program's array, and a trap leaves by exception.  They are not
   cleared between runs: the verifier rejects any read of a register no
   path has written, so a run never sees what the last one left. *)
let run loaded ~ctx =
  let prog = loaded.prog and regs = loaded.regs in
  let n = Array.length prog and len = String.length ctx in
  regs.(Insn.reg_index Insn.R1) <- len;
  loaded.runs <- loaded.runs + 1;
  let pc = ref 0 and fuel = ref (n + 1) and running = ref true in
  while !running do
    (* [pc >= n] cannot happen post-verification. *)
    if !fuel = 0 || !pc >= n then raise (Trap Fuel_exhausted);
    loaded.insns_executed <- loaded.insns_executed + 1;
    fuel := !fuel - 1;
    let here = !pc in
    let d = loaded.dst.(here) and s = loaded.src.(here) and next = here + 1 in
    match prog.(here) with
    | Insn.Mov_imm (_, imm) ->
        regs.(d) <- imm;
        pc := next
    | Insn.Mov_reg _ ->
        regs.(d) <- regs.(s);
        pc := next
    | Insn.Alu_imm (op, _, imm) ->
        regs.(d) <- alu op regs.(d) imm ~pc:here;
        pc := next
    | Insn.Alu_reg (op, _, _) ->
        regs.(d) <- alu op regs.(d) regs.(s) ~pc:here;
        pc := next
    | Insn.Ld_ctx (_, _, imm) ->
        let offset = regs.(s) + imm in
        if offset < 0 || offset >= len then
          raise (Trap (Ctx_out_of_bounds { pc = here; offset; len }));
        regs.(d) <- Char.code ctx.[offset];
        pc := next
    | Insn.Jmp off -> pc := next + off
    | Insn.Jcond (c, _, imm, off) -> pc := if cond c regs.(d) imm then next + off else next
    | Insn.Exit -> running := false
  done;
  regs.(Insn.reg_index Insn.R0)

let exec loaded ~ctx = match run loaded ~ctx with r0 -> Ok r0 | exception Trap t -> Error t
