(* The kload rig: the multi-tenant traffic harness end to end.

   The heavyweight checks ride on one smoke-scale run (CI re-runs it at
   acceptance scale via KSIM_KLOAD_TENANTS=10000): storm injections
   actually land, every panic is contained, the recovery SLO holds, no
   acknowledged durable write is lost, and the kebpf probe plane agrees
   with the harness's own counters.  Replay determinism is checked by
   fingerprint equality across two same-seed runs. *)

let check = Alcotest.check
let fail = Alcotest.fail

let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)

(* Extra seeds from the environment widen the net in CI without slowing
   the default edit loop (same hook shape as KSIM_TORTURE_SEEDS). *)
let extra_seeds =
  match Sys.getenv_opt "KSIM_KLOAD_SEEDS" with
  | None | Some "" -> []
  | Some s -> String.split_on_char ',' s |> List.filter_map int_of_string_opt

(* Spec DSL ---------------------------------------------------------------- *)

let test_spec_roundtrip () =
  let t = Kload.Spec.default in
  (match Kload.Spec.of_string (Kload.Spec.to_string t) with
  | Ok t' -> check Alcotest.bool "default round-trips" true (t = t')
  | Error e -> fail e);
  match Kload.Spec.of_string "tenants=100; ops=4; classes=solo:1:meta=1,churn=2" with
  | Error e -> fail e
  | Ok t ->
      check Alcotest.int "tenants parsed" 100 t.Kload.Spec.tenants;
      check Alcotest.int "ops parsed" 4 t.Kload.Spec.ops_per_tenant;
      check Alcotest.int "defaults kept" Kload.Spec.default.Kload.Spec.keyspace
        t.Kload.Spec.keyspace;
      (match t.Kload.Spec.classes with
      | [ c ] ->
          check Alcotest.string "class name" "solo" c.Kload.Spec.cname;
          check Alcotest.int "mix size" 2 (List.length c.Kload.Spec.mix)
      | _ -> fail "one class expected");
      check Alcotest.bool "custom round-trips" true
        (Kload.Spec.of_string (Kload.Spec.to_string t) = Ok t)

let test_spec_rejects () =
  let bad s = match Kload.Spec.of_string s with Ok _ -> fail s | Error _ -> () in
  bad "tenants=0";
  bad "ops=nope";
  bad "classes=solo:1:frobnicate=3";
  bad "classes=solo:0:meta=1";
  bad "classes=";
  bad "unknown=1";
  (* Below the generator's size floor: every tenant would die drawing. *)
  bad "payload=20"

let test_payload_floor_runs () =
  match Kload.Spec.of_string "tenants=4;ops=2;payload=32" with
  | Error e -> fail e
  | Ok spec ->
      let r = Kload.Harness.run ~spec ~storm:Kload.Harness.No_storm ~seed:42 () in
      check Alcotest.int "no crashed tenant" 0 r.Kload.Harness.crashed_tenants;
      check Alcotest.int "every op executed" 8 r.Kload.Harness.report.Kload.Report.executed

(* Distributions ----------------------------------------------------------- *)

(* The per-call form the precomputed bounded Pareto replaced: every
   draw recomputed [xmin ** alpha] and [xmax ** alpha]. *)
let reference_pareto rng ~alpha ~xmin ~xmax =
  let u = Ksim.Rng.float rng in
  let fmin = float_of_int xmin and fmax = float_of_int xmax in
  let l = fmin ** alpha and h = fmax ** alpha in
  let x = (-.((u *. h) -. u *. l -. h) /. (h *. l)) ** (-1.0 /. alpha) in
  min xmax (max xmin (int_of_float (Float.min fmax (Float.max fmin x))))

let test_dist_shapes () =
  let rng = Ksim.Rng.of_int 9 in
  let think = Kload.Dist.Bounded_pareto.create ~alpha:1.3 ~xmin:200 ~xmax:200_000 in
  for _ = 1 to 2000 do
    let x = Kload.Dist.Bounded_pareto.draw think rng in
    if x < 200 || x > 200_000 then fail "pareto out of bounds"
  done;
  (* Int for int equal to the per-call formula, over random shapes,
     bounds and streams. *)
  let params = Ksim.Rng.of_int 31 in
  for _ = 1 to 300 do
    let alpha = 0.2 +. (3.0 *. Ksim.Rng.float params) in
    let xmin = 1 + Ksim.Rng.int params 5_000 in
    let xmax = xmin + Ksim.Rng.int params (if Ksim.Rng.bool params then 300_000 else 1 lsl 40) in
    let seed = Ksim.Rng.int params 1_000_000 in
    let d = Kload.Dist.Bounded_pareto.create ~alpha ~xmin ~xmax in
    let a = Ksim.Rng.of_int seed and b = Ksim.Rng.of_int seed in
    for _ = 1 to 50 do
      let got = Kload.Dist.Bounded_pareto.draw d a
      and want = reference_pareto b ~alpha ~xmin ~xmax in
      if got <> want then
        fail (Printf.sprintf "alpha %g [%d, %d] seed %d: %d, formula %d" alpha xmin xmax seed
                got want)
    done
  done;
  let z = Kload.Dist.Zipf.create ~n:16 () in
  let counts = Array.make 16 0 in
  for _ = 1 to 4000 do
    let k = Kload.Dist.Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  check Alcotest.bool "rank 0 dominates rank 8" true (counts.(0) > 2 * counts.(8));
  check Alcotest.bool "every rank reachable" true (Array.for_all (fun c -> c >= 0) counts);
  (* Same seed, same draw sequence. *)
  let draw_seq seed =
    let rng = Ksim.Rng.of_int seed in
    List.init 64 (fun _ -> Kload.Dist.Zipf.draw z rng)
  in
  check Alcotest.bool "zipf replayable" true (draw_seq 4 = draw_seq 4)

(* Admission control ------------------------------------------------------- *)

let overload_config =
  {
    Kload.Admission.window_ns = 10_000;
    capacity = 4;
    per_tenant_cap = 2;
    hi_degrade = 4;
    hi_reject = 12;
    low_water = 1;
  }

let test_admission_degrades_and_recovers () =
  let adm = Kload.Admission.create ~config:overload_config ~tenants:8 () in
  (* Ramp: one mildly overloaded window lands the backlog in the
     reads-only band (capacity 4, hi_degrade 4, hi_reject 12), then
     saturated windows escalate to rejecting. *)
  let now = ref 0 in
  let offer_window n =
    for i = 1 to n do
      let (_ : Kload.Admission.decision) =
        Kload.Admission.offer adm ~now:!now ~tenant:(i mod 8) ~read_only:false
      in
      ()
    done;
    now := !now + 10_000
  in
  offer_window 10;
  offer_window 10;
  for _ = 1 to 6 do
    offer_window 20
  done;
  check Alcotest.bool "sheds under overload" true (Kload.Admission.shed adm > 0);
  check Alcotest.bool "backlog accumulated" true (Kload.Admission.backlog adm > 0);
  let modes = List.map snd (Kload.Admission.transitions adm) in
  check Alcotest.bool "degraded to reads-only" true
    (List.mem Kload.Admission.Reads_only modes);
  check Alcotest.bool "escalated to rejecting" true
    (List.mem Kload.Admission.Rejecting modes);
  (* In Rejecting mode even reads shed. *)
  check Alcotest.bool "rejecting sheds reads" true
    (Kload.Admission.offer adm ~now:!now ~tenant:0 ~read_only:true = Kload.Admission.Shed);
  (* Idle windows drain the backlog at full capacity; hysteresis brings
     the mode back through the low-water mark. *)
  now := !now + 100 * 10_000;
  let (_ : Kload.Admission.decision) =
    Kload.Admission.offer adm ~now:!now ~tenant:0 ~read_only:false
  in
  check Alcotest.bool "drained" true (Kload.Admission.backlog adm <= 1);
  check Alcotest.bool "accepting again" true
    (Kload.Admission.mode adm = Kload.Admission.Accepting)

let test_admission_bounded_queue () =
  let adm = Kload.Admission.create ~config:overload_config ~tenants:4 () in
  (* One tenant hammering: per-window cap 2 bounds its queue even though
     kernel-wide capacity (4) is not exhausted. *)
  let admitted = ref 0 in
  for _ = 1 to 10 do
    if Kload.Admission.offer adm ~now:0 ~tenant:1 ~read_only:false = Kload.Admission.Admit
    then incr admitted
  done;
  check Alcotest.int "per-tenant cap" 2 !admitted;
  check Alcotest.int "tenant shed counter" 8 (Kload.Admission.shed_of_tenant adm 1);
  (* Another tenant still gets the remaining kernel-wide slots. *)
  check Alcotest.bool "other tenant admitted" true
    (Kload.Admission.offer adm ~now:0 ~tenant:2 ~read_only:false = Kload.Admission.Admit)

(* Storm presets ----------------------------------------------------------- *)

let test_storm_presets_scale () =
  List.iter
    (fun preset ->
      let bursts = Kload.Harness.bursts_for preset ~total_ticks:1200 in
      List.iter
        (fun b ->
          if b.Ksim.Storm.start < 0 || b.Ksim.Storm.stop > 1200 then
            fail "burst outside the tick space";
          if b.Ksim.Storm.stop <= b.Ksim.Storm.start then fail "empty burst window")
        bursts)
    Kload.Harness.all_storms;
  (* The sock preset overlaps two bursts on one site by construction. *)
  match Kload.Harness.bursts_for Kload.Harness.Sock_storm ~total_ticks:1200 with
  | [ a; b ] ->
      check Alcotest.string "same site" a.Ksim.Storm.site b.Ksim.Storm.site;
      check Alcotest.bool "windows overlap" true
        (a.Ksim.Storm.stop > b.Ksim.Storm.start && b.Ksim.Storm.stop > a.Ksim.Storm.start)
  | _ -> fail "sock preset shape"

(* The full harness -------------------------------------------------------- *)

let run_gated ~tenants ~storm ~seed =
  let spec = { Kload.Spec.default with Kload.Spec.tenants } in
  let r = Kload.Harness.run ~spec ~storm ~seed () in
  let rep = r.Kload.Harness.report in
  check Alcotest.int (Printf.sprintf "seed %d: no uncontained tenant crash" seed) 0
    r.Kload.Harness.crashed_tenants;
  check Alcotest.int (Printf.sprintf "seed %d: zero lost acked writes" seed) 0
    rep.Kload.Report.lost_acked_writes;
  r

let test_smoke_storm_slo () =
  let tenants = env_int "KSIM_KLOAD_TENANTS" 500 in
  let r = run_gated ~tenants ~storm:Kload.Harness.Mixed ~seed:42 in
  let rep = r.Kload.Harness.report in
  check Alcotest.bool "ops executed" true (rep.Kload.Report.executed > 0);
  check Alcotest.bool "storm injected faults" true (rep.Kload.Report.injected_faults > 0);
  check Alcotest.bool "oopses struck" true (rep.Kload.Report.oopses > 0);
  check Alcotest.bool "microreboots happened" true (rep.Kload.Report.restarts > 0);
  check Alcotest.bool "recovery latencies measured" true
    (rep.Kload.Report.recovery.Ksim.Hist.count > 0);
  check Alcotest.bool "durable writes acked under storm" true
    (rep.Kload.Report.acked_writes > 0);
  (* The SLO gate itself. *)
  let verdict = Kload.Slo.evaluate rep in
  if not verdict.Kload.Slo.passed then
    fail (String.concat "; " verdict.Kload.Slo.violations);
  (* An impossible bound must be flagged (the violation path). *)
  let strict =
    { Kload.Slo.default_bounds with Kload.Slo.max_recovery_p99_ns = 0 }
  in
  check Alcotest.bool "violation detected under impossible bound" false
    (Kload.Slo.evaluate ~bounds:strict rep).Kload.Slo.passed;
  (* kebpf probe plane agrees with the harness's own per-tenant counters. *)
  check Alcotest.int "tenant probe buckets" tenants
    (Array.length r.Kload.Harness.tenant_op_counts);
  Array.iteri
    (fun i c ->
      if r.Kload.Harness.tenant_op_counts.(i) <> c.Kload.Report.t_executed then
        fail (Printf.sprintf "tenant %d: probe %d vs counter %d" i
                r.Kload.Harness.tenant_op_counts.(i) c.Kload.Report.t_executed))
    rep.Kload.Report.tenant_counters;
  check Alcotest.int "class/kind matrix covers every executed op"
    rep.Kload.Report.executed
    (Array.fold_left ( + ) 0 r.Kload.Harness.class_kind_counts);
  (* The report serializes. *)
  let json = Kload.Report.to_json_string rep in
  check Alcotest.bool "json has fingerprint" true
    (String.length json > 0
    && String.length rep.Kload.Report.fingerprint = 32)

let test_replay_determinism () =
  let spec = { Kload.Spec.default with Kload.Spec.tenants = 160 } in
  let run seed = Kload.Harness.run ~spec ~storm:Kload.Harness.Panic_wave ~seed () in
  let a = run 7 and b = run 7 in
  check Alcotest.string "identical fingerprints (per-tenant counters byte-for-byte)"
    a.Kload.Harness.report.Kload.Report.fingerprint
    b.Kload.Harness.report.Kload.Report.fingerprint;
  check Alcotest.bool "identical probe counters" true
    (a.Kload.Harness.tenant_op_counts = b.Kload.Harness.tenant_op_counts);
  check Alcotest.int "identical simulated duration"
    a.Kload.Harness.report.Kload.Report.sim_ns b.Kload.Harness.report.Kload.Report.sim_ns;
  check Alcotest.int "identical fault schedules"
    a.Kload.Harness.report.Kload.Report.injected_faults
    b.Kload.Harness.report.Kload.Report.injected_faults;
  let c = run 8 in
  check Alcotest.bool "different seed diverges" true
    (a.Kload.Harness.report.Kload.Report.fingerprint
    <> c.Kload.Harness.report.Kload.Report.fingerprint)

let test_overload_backpressure_run () =
  (* A run under a deliberately starved admission config: load is shed
     with EAGAIN, the mode degrades, and the run still finishes with
     durability intact. *)
  let spec = { Kload.Spec.default with Kload.Spec.tenants = 120 } in
  let r =
    Kload.Harness.run ~spec ~storm:Kload.Harness.No_storm ~admission:overload_config
      ~seed:5 ()
  in
  let rep = r.Kload.Harness.report in
  check Alcotest.int "no crashes" 0 r.Kload.Harness.crashed_tenants;
  check Alcotest.bool "load shed" true (rep.Kload.Report.shed > 0);
  check Alcotest.bool "mode transitions logged" true
    (rep.Kload.Report.admission_transitions <> []);
  check Alcotest.int "no lost acks under overload" 0 rep.Kload.Report.lost_acked_writes;
  check Alcotest.int "shed + executed = planned" rep.Kload.Report.planned
    (rep.Kload.Report.shed + rep.Kload.Report.executed)

(* Outputs pinned across commits: a change that moves one draw, one
   schedule step or one fault moves a per-tenant counter or the
   simulated clock. *)
let test_pinned_outputs () =
  let pinned name ~spec ~storm ~fingerprint ~sim_ns =
    let rep = (Kload.Harness.run ~spec ~storm ~seed:42 ()).Kload.Harness.report in
    check Alcotest.string (name ^ " fingerprint") fingerprint rep.Kload.Report.fingerprint;
    check Alcotest.int (name ^ " simulated ns") sim_ns rep.Kload.Report.sim_ns
  in
  pinned "mixed storm"
    ~spec:{ Kload.Spec.default with Kload.Spec.tenants = 200 }
    ~storm:Kload.Harness.Mixed ~fingerprint:"ce3ca55b217f76e2e0a2f0ae4a501f9a" ~sim_ns:2248122;
  (* More tenants than the scheduler's first run-queue capacities: the
     queue grows while every tenant is runnable. *)
  pinned "mixed storm, 4000 tenants"
    ~spec:{ Kload.Spec.default with Kload.Spec.tenants = 4000; ops_per_tenant = 2 }
    ~storm:Kload.Harness.Mixed ~fingerprint:"bdb4f0dc8f41bbaf6e3b1cbf9954f451" ~sim_ns:11732370;
  match
    Kload.Spec.of_string
      "tenants=16;ops=50;keyspace=96;payload=4096;classes=bulk:1:dwrite=8,dread=2"
  with
  | Error e -> fail e
  | Ok spec ->
      pinned "durable" ~spec ~storm:Kload.Harness.No_storm
        ~fingerprint:"6089a1eb34724a0e6477ed3ae86f50d6" ~sim_ns:1300827

(* The fingerprint's bytes as [Printf] formats them, the way
   [Report.fingerprint_of] built them before it wrote digits itself. *)
let sprintf_fingerprint counters =
  let buf = Buffer.create 64 in
  Array.iter
    (fun (c : Kload.Report.per_tenant) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d;" c.t_class c.t_planned c.t_executed
           c.t_ok c.t_errors c.t_shed c.t_acked c.t_estale c.t_eintr c.t_max_streak
           c.t_net_bytes))
    counters;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let fingerprint_matches_sprintf =
  let counter =
    QCheck2.Gen.(oneof [ int; int_range 0 100; pure 0; pure max_int; pure min_int ])
  in
  let per_tenant =
    QCheck2.Gen.(
      map
        (fun l ->
          match Array.of_list l with
          | [| a; b; c; d; e; f; g; h; i; j; k |] ->
              {
                Kload.Report.t_class = a;
                t_planned = b;
                t_executed = c;
                t_ok = d;
                t_errors = e;
                t_shed = f;
                t_acked = g;
                t_estale = h;
                t_eintr = i;
                t_max_streak = j;
                t_net_bytes = k;
              }
          | _ -> assert false)
        (list_repeat 11 counter))
  in
  QCheck2.Test.make ~name:"fingerprint_of = the sprintf fingerprint" ~count:300
    QCheck2.Gen.(array_size (int_range 0 20) per_tenant)
    (fun counters -> Kload.Report.fingerprint_of counters = sprintf_fingerprint counters)

let test_extra_seeds () =
  List.iter
    (fun seed ->
      let (_ : Kload.Harness.result) =
        run_gated ~tenants:160 ~storm:Kload.Harness.Mixed ~seed
      in
      ())
    extra_seeds

let () =
  Alcotest.run "kload"
    [
      ( "spec",
        [
          Alcotest.test_case "dsl round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "dsl rejects nonsense" `Quick test_spec_rejects;
          Alcotest.test_case "smallest payload runs" `Quick test_payload_floor_runs;
        ] );
      ("dist", [ Alcotest.test_case "heavy-tail shapes" `Quick test_dist_shapes ]);
      ( "admission",
        [
          Alcotest.test_case "degrades and recovers" `Quick
            test_admission_degrades_and_recovers;
          Alcotest.test_case "bounded per-tenant queue" `Quick test_admission_bounded_queue;
        ] );
      ("storm", [ Alcotest.test_case "presets scale" `Quick test_storm_presets_scale ]);
      ( "harness",
        [
          Alcotest.test_case "storm smoke + SLO gate" `Quick test_smoke_storm_slo;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "overload backpressure" `Quick test_overload_backpressure_run;
          Alcotest.test_case "extra seeds (KSIM_KLOAD_SEEDS)" `Quick test_extra_seeds;
          Alcotest.test_case "outputs pinned across commits" `Quick test_pinned_outputs;
        ] );
      ("report", [ QCheck_alcotest.to_alcotest fingerprint_matches_sprintf ]);
    ]
