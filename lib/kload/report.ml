type per_tenant = {
  t_class : int;
  t_planned : int;
  t_executed : int;
  t_ok : int;
  t_errors : int;
  t_shed : int;
  t_acked : int;
  t_estale : int;
  t_eintr : int;
  t_max_streak : int;
  t_net_bytes : int;
}

type t = {
  spec : Spec.t;
  seed : int;
  storm_name : string;
  sim_ns : int;
  planned : int;
  executed : int;
  ok : int;
  errors : int;
  shed : int;
  acked_writes : int;
  lost_acked_writes : int;
  injected_faults : int;
  oopses : int;
  restarts : int;
  escalations : int;
  stale_rejected : int;
  recovery : Ksim.Hist.summary;
  latency : (string * Ksim.Hist.summary) list;
  throughput_ops_per_sec : float;
  max_consec_errors : int;
  admission_transitions : (int * Admission.mode) list;
  class_histogram : (string * int) list;
  tenant_counters : per_tenant array;
  fingerprint : string;
}

(* [n] as [%d] prints it, digit by digit into [buf].  The digits come
   from [-|n|], which exists for every int, [min_int] included. *)
let rec add_digits buf m (* m <= 0 *) =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.chr (Char.code '0' - (m mod 10)))

let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_digits buf (if n < 0 then n else -n)

(* The replay witness: every counter of every tenant, in tenant order,
   as "%d,...,%d;" tuples, digested.  Any divergence between two
   same-seed runs — one op more, one error elsewhere, one byte of
   response — changes it. *)
let fingerprint_of counters =
  let buf = Buffer.create (Array.length counters * 24) in
  let field n sep =
    add_int buf n;
    Buffer.add_char buf sep
  in
  Array.iter
    (fun c ->
      field c.t_class ',';
      field c.t_planned ',';
      field c.t_executed ',';
      field c.t_ok ',';
      field c.t_errors ',';
      field c.t_shed ',';
      field c.t_acked ',';
      field c.t_estale ',';
      field c.t_eintr ',';
      field c.t_max_streak ',';
      field c.t_net_bytes ';')
    counters;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp fmt t =
  Format.fprintf fmt "@[<v>kload: %d tenants seed %d storm %s@," t.spec.Spec.tenants
    t.seed t.storm_name;
  Format.fprintf fmt "  ops: %d planned, %d executed, %d ok, %d errors, %d shed@,"
    t.planned t.executed t.ok t.errors t.shed;
  Format.fprintf fmt "  durability: %d acked writes, %d lost@," t.acked_writes
    t.lost_acked_writes;
  Format.fprintf fmt
    "  faults: %d injected, %d oopses, %d restarts, %d escalations, %d stale@,"
    t.injected_faults t.oopses t.restarts t.escalations t.stale_rejected;
  Format.fprintf fmt "  recovery: %a@," Ksim.Hist.pp_summary t.recovery;
  List.iter
    (fun (k, s) -> Format.fprintf fmt "  latency %-6s %a@," k Ksim.Hist.pp_summary s)
    t.latency;
  Format.fprintf fmt "  throughput: %.0f ops/s over %d sim-ns@," t.throughput_ops_per_sec
    t.sim_ns;
  Format.fprintf fmt "  worst error streak: %d@," t.max_consec_errors;
  Format.fprintf fmt "  admission: %d transitions%s@," (List.length t.admission_transitions)
    (match List.rev t.admission_transitions with
    | (ns, m) :: _ -> Printf.sprintf " (last: %s @ %d ns)" (Admission.mode_name m) ns
    | [] -> "");
  Format.fprintf fmt "  fingerprint: %s@]" t.fingerprint

(* Hand-rolled JSON: the report is flat and the repo takes no deps. *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let summary_json (s : Ksim.Hist.summary) =
  Printf.sprintf
    {|{"count":%d,"min":%d,"mean":%.1f,"max":%d,"p50":%d,"p95":%d,"p99":%d,"p999":%d}|}
    s.Ksim.Hist.count s.min s.mean s.max s.p50 s.p95 s.p99 s.p999

let to_json_string t =
  let buf = Buffer.create 1024 in
  let field name value = Buffer.add_string buf (Printf.sprintf "\"%s\":%s," name value) in
  Buffer.add_char buf '{';
  field "spec" (Printf.sprintf "\"%s\"" (json_escape (Spec.to_string t.spec)));
  field "seed" (string_of_int t.seed);
  field "storm" (Printf.sprintf "\"%s\"" (json_escape t.storm_name));
  field "sim_ns" (string_of_int t.sim_ns);
  field "planned" (string_of_int t.planned);
  field "executed" (string_of_int t.executed);
  field "ok" (string_of_int t.ok);
  field "errors" (string_of_int t.errors);
  field "shed" (string_of_int t.shed);
  field "shed_rate"
    (Printf.sprintf "%.4f" (if t.planned = 0 then 0.0 else float_of_int t.shed /. float_of_int t.planned));
  field "acked_writes" (string_of_int t.acked_writes);
  field "lost_acked_writes" (string_of_int t.lost_acked_writes);
  field "injected_faults" (string_of_int t.injected_faults);
  field "oopses" (string_of_int t.oopses);
  field "restarts" (string_of_int t.restarts);
  field "escalations" (string_of_int t.escalations);
  field "stale_rejected" (string_of_int t.stale_rejected);
  field "recovery_ns" (summary_json t.recovery);
  field "latency_ns"
    (Printf.sprintf "{%s}"
       (String.concat ","
          (List.map (fun (k, s) -> Printf.sprintf "\"%s\":%s" k (summary_json s)) t.latency)));
  field "throughput_ops_per_sec" (Printf.sprintf "%.1f" t.throughput_ops_per_sec);
  field "max_consec_errors" (string_of_int t.max_consec_errors);
  field "admission_transitions"
    (Printf.sprintf "[%s]"
       (String.concat ","
          (List.map
             (fun (ns, m) -> Printf.sprintf {|{"at_ns":%d,"mode":"%s"}|} ns (Admission.mode_name m))
             t.admission_transitions)));
  field "class_histogram"
    (Printf.sprintf "{%s}"
       (String.concat ","
          (List.map (fun (name, n) -> Printf.sprintf "\"%s\":%d" (json_escape name) n)
             t.class_histogram)));
  Buffer.add_string buf (Printf.sprintf "\"fingerprint\":\"%s\"" t.fingerprint);
  Buffer.add_char buf '}';
  Buffer.contents buf
