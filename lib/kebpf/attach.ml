(* Attachment points: where verified extension programs hook into the
   simulated kernel.

   Two hooks, mirroring eBPF's classic uses:

   - a packet filter: the program sees the packet bytes as its context and
     returns non-zero to accept;
   - a file-operation tracer: the program sees a fixed-layout encoding of
     each FS operation and returns a bucket number to count it under.

   A trapping program cannot harm the kernel: the hook applies a
   per-attachment default instead. *)

(* Packet filter ---------------------------------------------------------- *)

type filter = {
  prog : Vm.loaded;
  default_accept : bool;
  mutable accepted : int;
  mutable dropped : int;
  mutable traps : int;
}

let attach_filter ?(default_accept = false) prog =
  Result.map
    (fun loaded -> { prog = loaded; default_accept; accepted = 0; dropped = 0; traps = 0 })
    (Vm.load prog)

let filter_packet f packet =
  let verdict =
    match Vm.run f.prog ~ctx:packet with
    | v -> v <> 0
    | exception Vm.Trap _ ->
        f.traps <- f.traps + 1;
        f.default_accept
  in
  if verdict then f.accepted <- f.accepted + 1 else f.dropped <- f.dropped + 1;
  verdict

let filter_stats f = (f.accepted, f.dropped, f.traps)

(* FS-op tracer ------------------------------------------------------------ *)

(* Context layout for fs ops (all single bytes):
     ctx[0]  opcode (see [opcode_of])
     ctx[1]  path depth
     ctx[2]  payload size, clamped to 255
     ctx[3..] first path component (for prefix matching) *)
let opcode_of (op : Kspec.Fs_spec.op) =
  match op with
  | Kspec.Fs_spec.Create _ -> 1
  | Mkdir _ -> 2
  | Write _ -> 3
  | Read _ -> 4
  | Truncate _ -> 5
  | Unlink _ -> 6
  | Rmdir _ -> 7
  | Rename _ -> 8
  | Readdir _ -> 9
  | Stat _ -> 10
  | Fsync -> 11

let encode_op (op : Kspec.Fs_spec.op) =
  let path =
    match op with
    | Kspec.Fs_spec.Create p | Mkdir p | Truncate (p, _) | Unlink p | Rmdir p
    | Rename (p, _) | Readdir p | Stat p ->
        p
    | Write { file; _ } | Read { file; _ } -> file
    | Fsync -> []
  in
  let size =
    match op with
    | Kspec.Fs_spec.Write { data; _ } -> min 255 (String.length data)
    | Read { len; _ } -> min 255 (max 0 len)
    | Truncate (_, n) -> min 255 (max 0 n)
    | _ -> 0
  in
  let first = match path with comp :: _ -> comp | [] -> "" in
  let buf = Buffer.create (3 + String.length first) in
  Buffer.add_char buf (Char.chr (opcode_of op));
  Buffer.add_char buf (Char.chr (min 255 (List.length path)));
  Buffer.add_char buf (Char.chr size);
  Buffer.add_string buf first;
  Buffer.contents buf

type tracer = {
  tprog : Vm.loaded;
  buckets : int array;
  mutable ttraps : int;
}

let attach_tracer prog =
  Result.map
    (fun loaded -> { tprog = loaded; buckets = Array.make 16 0; ttraps = 0 })
    (Vm.load prog)

let trace_op tracer op =
  match Vm.run tracer.tprog ~ctx:(encode_op op) with
  | bucket ->
      let b = ((bucket mod Array.length tracer.buckets) + Array.length tracer.buckets)
              mod Array.length tracer.buckets in
      tracer.buckets.(b) <- tracer.buckets.(b) + 1
  | exception Vm.Trap _ -> tracer.ttraps <- tracer.ttraps + 1

let bucket_counts tracer = Array.copy tracer.buckets
let tracer_traps tracer = tracer.ttraps

(* Generic counter probe ---------------------------------------------------- *)

(* The tracer hook generalized to caller-encoded contexts: the load
   harness attaches these and feeds one event per tenant operation, so
   per-tenant / per-class counters are computed *by a verified program*
   rather than privileged harness code — kebpf as the in-sim
   observability plane. *)

type probe = {
  pprog : Vm.loaded;
  pbuckets : int array;
}

let attach_probe ?(buckets = 16) prog =
  Result.map
    (fun loaded -> { pprog = loaded; pbuckets = Array.make buckets 0 })
    (Vm.load prog)

let probe_event probe ctx =
  match Vm.run probe.pprog ~ctx with
  | bucket ->
      let n = Array.length probe.pbuckets in
      let b = ((bucket mod n) + n) mod n in
      probe.pbuckets.(b) <- probe.pbuckets.(b) + 1
  | exception Vm.Trap _ -> () (* a trapping probe drops the event *)

let probe_counts probe = Array.copy probe.pbuckets

(* Load-event context layout (all single bytes):
     ctx[0]  tenant id, low byte
     ctx[1]  tenant id, high byte
     ctx[2]  tenant class index
     ctx[3]  operation kind
     ctx[4]  payload size / 256, clamped to 255 *)
let encode_load_event ~tenant ~class_id ~kind ~size =
  let b = Bytes.create 5 in
  Bytes.set b 0 (Char.chr (tenant land 0xff));
  Bytes.set b 1 (Char.chr ((tenant lsr 8) land 0xff));
  Bytes.set b 2 (Char.chr (class_id land 0xff));
  Bytes.set b 3 (Char.chr (kind land 0xff));
  Bytes.set b 4 (Char.chr (min 255 (size lsr 8)));
  Ksim.Frame.Buf.freeze b

(* Bucket = tenant id (ctx[0] + 256 * ctx[1]); attach with a bucket
   count covering the tenant population (the hook wraps modulo). *)
let tenant_probe : Insn.program =
  [|
    Insn.Mov_imm (Insn.R2, 0);
    Insn.Ld_ctx (Insn.R3, Insn.R2, 0);
    Insn.Ld_ctx (Insn.R4, Insn.R2, 1);
    Insn.Alu_imm (Insn.Mul, Insn.R4, 256);
    Insn.Mov_reg (Insn.R0, Insn.R3);
    Insn.Alu_reg (Insn.Add, Insn.R0, Insn.R4);
    Insn.Exit;
  |]

(* Bucket = class * 8 + kind: the per-class op-mix matrix. *)
let class_kind_probe : Insn.program =
  [|
    Insn.Mov_imm (Insn.R2, 0);
    Insn.Ld_ctx (Insn.R3, Insn.R2, 2);
    Insn.Alu_imm (Insn.Mul, Insn.R3, 8);
    Insn.Ld_ctx (Insn.R4, Insn.R2, 3);
    Insn.Mov_reg (Insn.R0, Insn.R3);
    Insn.Alu_reg (Insn.Add, Insn.R0, Insn.R4);
    Insn.Exit;
  |]

(* Canned programs ----------------------------------------------------------- *)

(* Accept packets whose first byte equals [kind] and that are at least
   [min_len] bytes long. *)
let packet_kind_filter ~kind ~min_len : Insn.program =
  [|
    (* if len < min_len: drop *)
    Insn.Mov_imm (Insn.R0, 0);
    Insn.Jcond (Insn.Lt, Insn.R1, min_len, 4);
    (* load ctx[0], compare to kind *)
    Insn.Mov_imm (Insn.R2, 0);
    Insn.Ld_ctx (Insn.R3, Insn.R2, 0);
    Insn.Jcond (Insn.Ne, Insn.R3, kind, 1);
    Insn.Mov_imm (Insn.R0, 1);
    Insn.Exit;
  |]

(* Count fs ops by opcode (bucket = opcode). *)
let opcode_tracer : Insn.program =
  [|
    Insn.Mov_imm (Insn.R2, 0);
    Insn.Ld_ctx (Insn.R0, Insn.R2, 0);
    Insn.Exit;
  |]

(* Bucket 1 for writes larger than [threshold] bytes, else bucket 0. *)
let large_write_tracer ~threshold : Insn.program =
  [|
    Insn.Mov_imm (Insn.R0, 0);
    Insn.Mov_imm (Insn.R2, 0);
    Insn.Ld_ctx (Insn.R3, Insn.R2, 0);
    (* not a write: bucket 0 *)
    Insn.Jcond (Insn.Ne, Insn.R3, 3, 3);
    Insn.Ld_ctx (Insn.R4, Insn.R2, 2);
    Insn.Jcond (Insn.Le, Insn.R4, threshold, 1);
    Insn.Mov_imm (Insn.R0, 1);
    Insn.Exit;
  |]

(* The canonical rejected program: a loop.  The verifier refuses it, which
   is the executable form of the expressiveness limit. *)
let looping_program : Insn.program =
  [|
    Insn.Mov_imm (Insn.R0, 0);
    Insn.Alu_imm (Insn.Add, Insn.R0, 1);
    Insn.Jmp (-2) (* back to the increment: rejected *);
    Insn.Exit;
  |]
