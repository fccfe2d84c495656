(* Tests for the extension VM: verifier soundness, interpreter semantics,
   the attachment points, and the expressiveness-limit contrast. *)

let check = Alcotest.check
let fail = Alcotest.fail

let load_ok prog =
  match Kebpf.Vm.load prog with
  | Ok loaded -> loaded
  | Error r -> fail (Fmt.str "unexpected rejection: %a" Kebpf.Verifier.pp_rejection r)

let expect_reject prog expected_reason_fragment =
  match Kebpf.Verifier.check prog with
  | Ok () -> fail "expected rejection"
  | Error r ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool
        (Printf.sprintf "reason %S mentions %S" r.Kebpf.Verifier.reason expected_reason_fragment)
        true
        (contains r.Kebpf.Verifier.reason expected_reason_fragment)

let exec_ok loaded ctx =
  match Kebpf.Vm.exec loaded ~ctx with
  | Ok v -> v
  | Error trap -> fail (Kebpf.Vm.trap_to_string trap)

(* Verifier ------------------------------------------------------------------ *)

let test_verifier_accepts_canned () =
  List.iter
    (fun (name, prog) ->
      match Kebpf.Verifier.check prog with
      | Ok () -> ()
      | Error r -> fail (Fmt.str "%s rejected: %a" name Kebpf.Verifier.pp_rejection r))
    [
      ("kind filter", Kebpf.Attach.packet_kind_filter ~kind:1 ~min_len:2);
      ("opcode tracer", Kebpf.Attach.opcode_tracer);
      ("large-write tracer", Kebpf.Attach.large_write_tracer ~threshold:100);
    ]

let test_verifier_rejects_backward_jump () =
  expect_reject Kebpf.Attach.looping_program "backward"

let test_verifier_rejects_empty () = expect_reject [||] "empty"

let test_verifier_rejects_fall_off_end () =
  expect_reject [| Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 1) |] "fall off"

let test_verifier_rejects_uninitialized_read () =
  expect_reject
    [| Kebpf.Insn.Mov_reg (Kebpf.Insn.R0, Kebpf.Insn.R5); Kebpf.Insn.Exit |]
    "uninitialized r5";
  (* r0 itself must be set before Exit. *)
  expect_reject [| Kebpf.Insn.Exit |] "uninitialized r0";
  (* r1 (context length) is initialized on entry. *)
  match
    Kebpf.Verifier.check [| Kebpf.Insn.Mov_reg (Kebpf.Insn.R0, Kebpf.Insn.R1); Kebpf.Insn.Exit |]
  with
  | Ok () -> ()
  | Error r -> fail (Fmt.str "%a" Kebpf.Verifier.pp_rejection r)

let test_verifier_join_intersects () =
  (* r2 is initialized on only one branch: reading it after the join must
     be rejected. *)
  expect_reject
    [|
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 0);
      Kebpf.Insn.Jcond (Kebpf.Insn.Eq, Kebpf.Insn.R1, 0, 1);
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R2, 7);
      (* join *)
      Kebpf.Insn.Mov_reg (Kebpf.Insn.R0, Kebpf.Insn.R2);
      Kebpf.Insn.Exit;
    |]
    "uninitialized r2"

let test_verifier_rejects_oob_jump () =
  expect_reject
    [| Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 0); Kebpf.Insn.Jmp 7; Kebpf.Insn.Exit |]
    "out of bounds"

let test_verifier_rejects_div_zero_imm () =
  expect_reject
    [|
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 8);
      Kebpf.Insn.Alu_imm (Kebpf.Insn.Div, Kebpf.Insn.R0, 0);
      Kebpf.Insn.Exit;
    |]
    "zero"

let test_verifier_ignores_dead_code () =
  (* Dead code after an unconditional jump is not analyzed (like eBPF,
     which rejects it; we tolerate and skip — documented divergence). *)
  let prog =
    [|
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 1);
      Kebpf.Insn.Jmp 1;
      Kebpf.Insn.Mov_reg (Kebpf.Insn.R0, Kebpf.Insn.R7) (* dead, uninitialized *);
      Kebpf.Insn.Exit;
    |]
  in
  match Kebpf.Verifier.check prog with
  | Ok () -> ()
  | Error r -> fail (Fmt.str "%a" Kebpf.Verifier.pp_rejection r)

(* VM semantics ---------------------------------------------------------------- *)

let test_vm_arithmetic () =
  let prog =
    [|
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 10);
      Kebpf.Insn.Alu_imm (Kebpf.Insn.Mul, Kebpf.Insn.R0, 6);
      Kebpf.Insn.Alu_imm (Kebpf.Insn.Sub, Kebpf.Insn.R0, 18);
      Kebpf.Insn.Alu_imm (Kebpf.Insn.Div, Kebpf.Insn.R0, 7);
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R2, 2);
      Kebpf.Insn.Alu_reg (Kebpf.Insn.Lsh, Kebpf.Insn.R0, Kebpf.Insn.R2);
      Kebpf.Insn.Exit;
    |]
  in
  check Alcotest.int "(10*6-18)/7 << 2" 24 (exec_ok (load_ok prog) "")

let test_vm_ctx_load_and_len () =
  let prog =
    [|
      (* r0 = ctx[1] + len *)
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R2, 1);
      Kebpf.Insn.Ld_ctx (Kebpf.Insn.R0, Kebpf.Insn.R2, 0);
      Kebpf.Insn.Alu_reg (Kebpf.Insn.Add, Kebpf.Insn.R0, Kebpf.Insn.R1);
      Kebpf.Insn.Exit;
    |]
  in
  check Alcotest.int "ctx[1]+len" (Char.code 'b' + 3) (exec_ok (load_ok prog) "abc")

let test_vm_ctx_bounds_trap () =
  let prog =
    [|
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R2, 100);
      Kebpf.Insn.Ld_ctx (Kebpf.Insn.R0, Kebpf.Insn.R2, 0);
      Kebpf.Insn.Exit;
    |]
  in
  match Kebpf.Vm.exec (load_ok prog) ~ctx:"abc" with
  | Ok _ -> fail "expected trap"
  | Error (Kebpf.Vm.Ctx_out_of_bounds { offset; len; _ }) ->
      check Alcotest.int "offset" 100 offset;
      check Alcotest.int "len" 3 len
  | Error trap -> fail (Kebpf.Vm.trap_to_string trap)

let test_vm_div_zero_trap () =
  let prog =
    [|
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 5);
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R2, 0);
      Kebpf.Insn.Alu_reg (Kebpf.Insn.Div, Kebpf.Insn.R0, Kebpf.Insn.R2);
      Kebpf.Insn.Exit;
    |]
  in
  match Kebpf.Vm.exec (load_ok prog) ~ctx:"" with
  | Error (Kebpf.Vm.Division_by_zero _) -> ()
  | Ok _ -> fail "expected trap"
  | Error trap -> fail (Kebpf.Vm.trap_to_string trap)

let test_vm_branches () =
  let classify =
    [|
      (* r0 = if len < 5 then 1 else if ctx[0] = 'x' then 2 else 3 *)
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 1);
      Kebpf.Insn.Jcond (Kebpf.Insn.Lt, Kebpf.Insn.R1, 5, 5);
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R2, 0);
      Kebpf.Insn.Ld_ctx (Kebpf.Insn.R3, Kebpf.Insn.R2, 0);
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 2);
      Kebpf.Insn.Jcond (Kebpf.Insn.Eq, Kebpf.Insn.R3, Char.code 'x', 1);
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R0, 3);
      Kebpf.Insn.Exit;
    |]
  in
  let loaded = load_ok classify in
  check Alcotest.int "short" 1 (exec_ok loaded "ab");
  check Alcotest.int "x-prefixed" 2 (exec_ok loaded "xlong-enough");
  check Alcotest.int "other" 3 (exec_ok loaded "ylong-enough")

let test_vm_stats () =
  let loaded = load_ok Kebpf.Attach.opcode_tracer in
  ignore (exec_ok loaded "abc");
  ignore (exec_ok loaded "abc");
  let runs, insns = Kebpf.Vm.stats loaded in
  check Alcotest.int "runs" 2 runs;
  check Alcotest.int "3 insns each" 6 insns

(* Attach: packet filter --------------------------------------------------------- *)

let test_filter_accepts_and_drops () =
  let f =
    match Kebpf.Attach.attach_filter (Kebpf.Attach.packet_kind_filter ~kind:1 ~min_len:3) with
    | Ok f -> f
    | Error r -> fail (Fmt.str "%a" Kebpf.Verifier.pp_rejection r)
  in
  check Alcotest.bool "kind-1 long enough" true (Kebpf.Attach.filter_packet f "\001xx");
  check Alcotest.bool "wrong kind" false (Kebpf.Attach.filter_packet f "\002xx");
  check Alcotest.bool "too short" false (Kebpf.Attach.filter_packet f "\001");
  let accepted, dropped, traps = Kebpf.Attach.filter_stats f in
  check Alcotest.(triple int int int) "stats" (1, 2, 0) (accepted, dropped, traps)

let test_filter_trap_applies_default () =
  (* A program that always reads ctx[0] traps on the empty packet. *)
  let prog =
    [|
      Kebpf.Insn.Mov_imm (Kebpf.Insn.R2, 0);
      Kebpf.Insn.Ld_ctx (Kebpf.Insn.R0, Kebpf.Insn.R2, 0);
      Kebpf.Insn.Exit;
    |]
  in
  let f =
    match Kebpf.Attach.attach_filter ~default_accept:true prog with
    | Ok f -> f
    | Error r -> fail (Fmt.str "%a" Kebpf.Verifier.pp_rejection r)
  in
  check Alcotest.bool "trap -> default accept" true (Kebpf.Attach.filter_packet f "");
  let _, _, traps = Kebpf.Attach.filter_stats f in
  check Alcotest.int "trap counted" 1 traps

let test_filter_rejects_unverified () =
  match Kebpf.Attach.attach_filter Kebpf.Attach.looping_program with
  | Ok _ -> fail "loop attached"
  | Error _ -> ()

(* Attach: fs tracer ---------------------------------------------------------------- *)

let test_tracer_counts_opcodes () =
  let tracer =
    match Kebpf.Attach.attach_tracer Kebpf.Attach.opcode_tracer with
    | Ok t -> t
    | Error r -> fail (Fmt.str "%a" Kebpf.Verifier.pp_rejection r)
  in
  let p = Kspec.Fs_spec.path_of_string in
  let ops =
    [ Kspec.Fs_spec.Create (p "/a");
      Kspec.Fs_spec.Create (p "/b");
      Kspec.Fs_spec.Write { file = p "/a"; off = 0; data = "xy" };
      Kspec.Fs_spec.Fsync ]
  in
  List.iter (Kebpf.Attach.trace_op tracer) ops;
  let buckets = Kebpf.Attach.bucket_counts tracer in
  check Alcotest.int "creates" 2 buckets.(1);
  check Alcotest.int "writes" 1 buckets.(3);
  check Alcotest.int "fsyncs" 1 buckets.(11);
  check Alcotest.int "no traps" 0 (Kebpf.Attach.tracer_traps tracer)

let test_tracer_large_writes () =
  let tracer =
    match Kebpf.Attach.attach_tracer (Kebpf.Attach.large_write_tracer ~threshold:10) with
    | Ok t -> t
    | Error r -> fail (Fmt.str "%a" Kebpf.Verifier.pp_rejection r)
  in
  let p = Kspec.Fs_spec.path_of_string in
  Kebpf.Attach.trace_op tracer (Kspec.Fs_spec.Write { file = p "/a"; off = 0; data = "tiny" });
  Kebpf.Attach.trace_op tracer
    (Kspec.Fs_spec.Write { file = p "/a"; off = 0; data = String.make 100 'x' });
  Kebpf.Attach.trace_op tracer (Kspec.Fs_spec.Stat (p "/a"));
  let buckets = Kebpf.Attach.bucket_counts tracer in
  check Alcotest.int "small+other" 2 buckets.(0);
  check Alcotest.int "large" 1 buckets.(1)

let test_tracer_over_workload () =
  let tracer =
    match Kebpf.Attach.attach_tracer Kebpf.Attach.opcode_tracer with
    | Ok t -> t
    | Error r -> fail (Fmt.str "%a" Kebpf.Verifier.pp_rejection r)
  in
  let trace = Kfs.Workload.generate ~seed:3 Kfs.Workload.Mixed ~ops:500 in
  List.iter (Kebpf.Attach.trace_op tracer) trace;
  let total = Array.fold_left ( + ) 0 (Kebpf.Attach.bucket_counts tracer) in
  check Alcotest.int "every op counted" 500 (total + Kebpf.Attach.tracer_traps tracer);
  check Alcotest.int "no traps on real ops" 0 (Kebpf.Attach.tracer_traps tracer)

(* The expressiveness limit, stated as tests -------------------------------------- *)

let test_trip_count_is_static () =
  let prog = Kebpf.Attach.packet_kind_filter ~kind:1 ~min_len:2 in
  check Alcotest.int "bounded by length" (Array.length prog) (Kebpf.Verifier.max_trip_count prog)

let test_no_loops_means_no_fs () =
  (* A directory walk needs input-dependent iteration: the only way to
     express it here is a backward jump, which the verifier refuses.
     This is the paper's "does not support complex kernel components". *)
  expect_reject Kebpf.Attach.looping_program "backward"

let test_verifier_program_length_cap () =
  let too_long = Array.make (Kebpf.Verifier.max_insns + 1) Kebpf.Insn.Exit in
  expect_reject too_long "too long"

(* QCheck robustness ----------------------------------------------------------------- *)

let gen_insn =
  let open QCheck2.Gen in
  let reg = oneofl Kebpf.Insn.all_regs in
  let alu =
    oneofl
      [ Kebpf.Insn.Add; Kebpf.Insn.Sub; Kebpf.Insn.Mul; Kebpf.Insn.Div; Kebpf.Insn.And;
        Kebpf.Insn.Or; Kebpf.Insn.Xor; Kebpf.Insn.Lsh; Kebpf.Insn.Rsh ]
  in
  let cond =
    oneofl [ Kebpf.Insn.Eq; Kebpf.Insn.Ne; Kebpf.Insn.Lt; Kebpf.Insn.Gt; Kebpf.Insn.Le;
             Kebpf.Insn.Ge ]
  in
  oneof
    [
      map2 (fun r i -> Kebpf.Insn.Mov_imm (r, i)) reg (int_range (-100) 100);
      map2 (fun a b -> Kebpf.Insn.Mov_reg (a, b)) reg reg;
      map3 (fun op r i -> Kebpf.Insn.Alu_imm (op, r, i)) alu reg (int_range (-8) 8);
      map3 (fun op a b -> Kebpf.Insn.Alu_reg (op, a, b)) alu reg reg;
      map3 (fun a b i -> Kebpf.Insn.Ld_ctx (a, b, i)) reg reg (int_range (-4) 20);
      map (fun off -> Kebpf.Insn.Jmp off) (int_range (-3) 6);
      map3
        (fun c (r, i) off -> Kebpf.Insn.Jcond (c, r, i, off))
        cond
        (pair reg (int_range 0 12))
        (int_range (-3) 6);
      return Kebpf.Insn.Exit;
    ]

let gen_program = QCheck2.Gen.(map Array.of_list (list_size (int_range 1 24) gen_insn))

(* Programs the verifier mostly accepts (few of [gen_program]'s do):
   every register but r1 set first, jumps pointed forward inside the
   program, and a final [Exit]. *)
let gen_runnable =
  QCheck2.Gen.(
    map
      (fun body ->
        let init =
          List.filter_map
            (fun r -> if r = Kebpf.Insn.R1 then None else Some (Kebpf.Insn.Mov_imm (r, 5)))
            Kebpf.Insn.all_regs
        in
        let prog = Array.of_list (init @ body @ [ Kebpf.Insn.Exit ]) in
        let last = Array.length prog - 1 in
        Array.mapi
          (fun i insn ->
            let fwd off = min (abs off) (last - i - 1) in
            match insn with
            | Kebpf.Insn.Jmp off -> Kebpf.Insn.Jmp (fwd off)
            | Kebpf.Insn.Jcond (c, r, imm, off) -> Kebpf.Insn.Jcond (c, r, imm, fwd off)
            | insn -> insn)
          prog)
      (list_size (int_range 0 24) gen_insn))

(* The VM as it was before its loop stopped allocating: a fresh
   register array, closures and an [Ok] box per ALU instruction.  It
   returns the result and the instructions it counted. *)
let reference_exec prog ~ctx =
  let module I = Kebpf.Insn in
  let n = Array.length prog and len = String.length ctx in
  let regs = Array.make 8 0 in
  regs.(I.reg_index I.R1) <- len;
  let insns = ref 0 in
  let get r = regs.(I.reg_index r) and set r v = regs.(I.reg_index r) <- v in
  let alu op a b ~pc =
    match op with
    | I.Add -> Ok (a + b)
    | I.Sub -> Ok (a - b)
    | I.Mul -> Ok (a * b)
    | I.Div -> if b = 0 then Error (Kebpf.Vm.Division_by_zero { pc }) else Ok (a / b)
    | I.And -> Ok (a land b)
    | I.Or -> Ok (a lor b)
    | I.Xor -> Ok (a lxor b)
    | I.Lsh -> Ok (a lsl (b land 62))
    | I.Rsh -> Ok (a lsr (b land 62))
  in
  let cond c a b =
    match c with
    | I.Eq -> a = b
    | I.Ne -> a <> b
    | I.Lt -> a < b
    | I.Gt -> a > b
    | I.Le -> a <= b
    | I.Ge -> a >= b
  in
  let rec step pc fuel =
    if fuel = 0 || pc >= n then Error Kebpf.Vm.Fuel_exhausted
    else begin
      incr insns;
      match prog.(pc) with
      | I.Mov_imm (d, imm) ->
          set d imm;
          step (pc + 1) (fuel - 1)
      | I.Mov_reg (d, s) ->
          set d (get s);
          step (pc + 1) (fuel - 1)
      | I.Alu_imm (op, d, imm) -> (
          match alu op (get d) imm ~pc with
          | Ok v ->
              set d v;
              step (pc + 1) (fuel - 1)
          | Error trap -> Error trap)
      | I.Alu_reg (op, d, s) -> (
          match alu op (get d) (get s) ~pc with
          | Ok v ->
              set d v;
              step (pc + 1) (fuel - 1)
          | Error trap -> Error trap)
      | I.Ld_ctx (d, s, imm) ->
          let offset = get s + imm in
          if offset < 0 || offset >= len then
            Error (Kebpf.Vm.Ctx_out_of_bounds { pc; offset; len })
          else begin
            set d (Char.code ctx.[offset]);
            step (pc + 1) (fuel - 1)
          end
      | I.Jmp off -> step (pc + 1 + off) (fuel - 1)
      | I.Jcond (c, r, imm, off) ->
          if cond c (get r) imm then step (pc + 1 + off) (fuel - 1)
          else step (pc + 1) (fuel - 1)
      | I.Exit -> Ok (get I.R0)
    end
  in
  let result = step 0 (n + 1) in
  (result, !insns)

let prop_verified_programs_never_harm_kernel =
  QCheck2.Test.make ~name:"verified programs terminate without exceptions" ~count:1000
    QCheck2.Gen.(
      pair (oneof [ gen_program; gen_runnable ]) (string_size ~gen:printable (int_range 0 16)))
    (fun (prog, ctx) ->
      match Kebpf.Vm.load prog with
      | Error _ -> true (* rejected up front: kernel never runs it *)
      | Ok loaded ->
          (* Accepted: execution must finish without OCaml exceptions,
             within the static trip bound, and exactly as the reference
             does — result, trap and [Vm.stats] — on every run (the
             second run starts from the registers the first left). *)
          let want, want_insns = reference_exec prog ~ctx in
          List.for_all
            (fun run ->
              let got = Kebpf.Vm.exec loaded ~ctx in
              got = want
              && Kebpf.Vm.stats loaded = (run, run * want_insns)
              && want_insns <= Kebpf.Verifier.max_trip_count prog)
            [ 1; 2 ])

let prop_verifier_deterministic =
  QCheck2.Test.make ~name:"verifier is deterministic" ~count:300 gen_program (fun prog ->
      Kebpf.Verifier.check prog = Kebpf.Verifier.check prog)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "kebpf"
    [
      ( "verifier",
        [
          Alcotest.test_case "accepts canned programs" `Quick test_verifier_accepts_canned;
          Alcotest.test_case "rejects backward jump" `Quick test_verifier_rejects_backward_jump;
          Alcotest.test_case "rejects empty" `Quick test_verifier_rejects_empty;
          Alcotest.test_case "rejects fall-off-end" `Quick test_verifier_rejects_fall_off_end;
          Alcotest.test_case "rejects uninitialized reads" `Quick
            test_verifier_rejects_uninitialized_read;
          Alcotest.test_case "join intersects init-sets" `Quick test_verifier_join_intersects;
          Alcotest.test_case "rejects out-of-bounds jump" `Quick test_verifier_rejects_oob_jump;
          Alcotest.test_case "rejects div-by-zero imm" `Quick test_verifier_rejects_div_zero_imm;
          Alcotest.test_case "skips dead code" `Quick test_verifier_ignores_dead_code;
        ] );
      ( "vm",
        [
          Alcotest.test_case "arithmetic" `Quick test_vm_arithmetic;
          Alcotest.test_case "ctx load + len" `Quick test_vm_ctx_load_and_len;
          Alcotest.test_case "ctx bounds trap" `Quick test_vm_ctx_bounds_trap;
          Alcotest.test_case "div-zero trap" `Quick test_vm_div_zero_trap;
          Alcotest.test_case "branches" `Quick test_vm_branches;
          Alcotest.test_case "stats" `Quick test_vm_stats;
        ] );
      ( "attach",
        [
          Alcotest.test_case "filter accepts/drops" `Quick test_filter_accepts_and_drops;
          Alcotest.test_case "filter trap default" `Quick test_filter_trap_applies_default;
          Alcotest.test_case "filter rejects unverified" `Quick test_filter_rejects_unverified;
          Alcotest.test_case "tracer counts opcodes" `Quick test_tracer_counts_opcodes;
          Alcotest.test_case "tracer large writes" `Quick test_tracer_large_writes;
          Alcotest.test_case "tracer over workload" `Quick test_tracer_over_workload;
        ] );
      ( "expressiveness",
        Alcotest.test_case "trip count static" `Quick test_trip_count_is_static
        :: Alcotest.test_case "program length cap" `Quick test_verifier_program_length_cap
        :: Alcotest.test_case "no loops, no fs" `Quick test_no_loops_means_no_fs
        :: qcheck [ prop_verified_programs_never_harm_kernel; prop_verifier_deterministic ] );
    ]
