(* The benchmark workloads.  One call to [run] is one round: it builds
   its inputs from the seed (set-up), stamps the end of set-up, runs the
   measured calls through the public entry points (Kload.Harness.run,
   Kharness.run, the klint passes) and checks their outputs.

   An untraced round calls the entry points bare; its times are the
   end-to-end numbers.  A traced round does the same work with probes
   ({!Probe}) around each layer and reports per-layer numbers, plus the
   in-process bare twin of the probed work where there is one, so the
   caller can report the tracing overhead. *)

module Fs = Kspec.Fs_spec

type scale =
  | Full
  | Tiny  (** a few ops per workload, for the tests *)

type round = {
  ready_ns : int;  (** monotonic stamp at the end of set-up *)
  units : (int * int) list;
      (** one [(work done, wall ns)] pair per measured call: kload ops
          executed, krefine crash images checked, or files linted *)
  attempted : int;  (** operations the round asked for *)
  failures : string list;  (** output checks that failed *)
  fingerprint : string;
      (** output witness: equal across rounds of one seed, traced or not *)
  layers : (string * float) list;
  traced_ns : int;  (** wall ns of the probed work (0 in untraced rounds) *)
  plain_ns : int;  (** wall ns of the same work unprobed, in-process (0 if none) *)
}

let names = [ "load-mixed"; "load-durable"; "refine-crash"; "lint-tree" ]
let fi = float_of_int
let ratio a b = if b = 0 then 0.0 else fi a /. fi b

let timed f =
  let t0 = Probe.now_ns () in
  let r = f () in
  (r, Probe.now_ns () - t0)

let check cond msg = if cond then [] else [ msg ]

(* kload ------------------------------------------------------------------------ *)

let load_spec ~durable scale =
  let spec =
    if durable then
      match
        Kload.Spec.of_string
          "tenants=64;ops=100;keyspace=96;payload=4096;classes=bulk:1:dwrite=8,dread=2"
      with
      | Ok s -> s
      | Error e -> invalid_arg e
    else { Kload.Spec.default with Kload.Spec.tenants = 4_000 }
  in
  match scale with
  | Full -> spec
  | Tiny -> { spec with Kload.Spec.tenants = min spec.Kload.Spec.tenants 40; ops_per_tenant = 4 }

let load_storm ~durable = if durable then Kload.Harness.No_storm else Kload.Harness.Mixed

let sum_stats stats ~prefix ~suffix =
  List.fold_left
    (fun acc (k, v) ->
      if String.starts_with ~prefix k && String.ends_with ~suffix k then acc + v else acc)
    0 (Ksim.Kstats.to_list stats)

(* What the run itself reports: deterministic in (spec, storm, seed). *)
let load_stats (r : Kload.Harness.result) =
  let stats = r.Kload.Harness.stats and rep = r.Kload.Harness.report in
  let lat = Ksim.Hist.create () in
  List.iter
    (fun (name, h) ->
      if String.starts_with ~prefix:"kload.lat." name then Ksim.Hist.merge_into ~dst:lat h)
    (Ksim.Kstats.hists stats);
  let dwrites =
    Ksim.Hist.count
      (Ksim.Kstats.hist stats ("kload.lat." ^ Kload.Spec.kind_name Kload.Spec.Data_write))
  in
  let sup suffix = fi (sum_stats stats ~prefix:"supervisor." ~suffix:("." ^ suffix)) in
  [
    ("kload.sim_p99_ns", fi (Ksim.Hist.percentile lat 99.0));
    ( "kload.failed_frac",
      ratio (rep.Kload.Report.errors + rep.Kload.Report.shed) rep.Kload.Report.planned );
    ("supervisor.oopses", sup "oopses");
    ("supervisor.restarts", sup "restarts");
    ("supervisor.eintr_aborted", sup "eintr_aborted");
    ("supervisor.stale_handles", sup "stale_handles");
    ("failpoint.injected", fi (sum_stats stats ~prefix:"" ~suffix:".injected"));
    ("kload.write_contended", fi (Ksim.Kstats.get stats "kload.write_contended"));
    ("kload.acked_writes", fi (Ksim.Kstats.get stats "kload.acked_writes"));
    ("kload.shed", fi (Ksim.Kstats.get stats "kload.shed"));
    ("kload.ack_ratio", ratio (Ksim.Kstats.get stats "kload.acked_writes") dwrites);
  ]

let load_checks (r : Kload.Harness.result) =
  let rep = r.Kload.Harness.report in
  check (rep.Kload.Report.lost_acked_writes = 0)
    (Printf.sprintf "%d acked writes lost" rep.Kload.Report.lost_acked_writes)
  @ check (r.Kload.Harness.crashed_tenants = 0)
      (Printf.sprintf "%d tenants crashed" r.Kload.Harness.crashed_tenants)

(* The kload stack, rebuilt here so each layer can be probed:
   [Kload.Harness.run] builds its own internally.  Same topology,
   geometry, supervisor policy and storm schedule as the harness. *)

let geometry =
  { Kfs.Journalfs.nblocks = 4096; block_size = 512; jblocks = 96; ninodes = 128 }

let sup_policy =
  {
    Ksim.Supervisor.restart_budget = 1_000_000;
    backoff_base = 200;
    backoff_cap = 5_000;
    op_cost = 100;
  }

let io_layers = [ "resilient"; "flakydev"; "wcache"; "blockdev" ] (* top to bottom *)

type replay = {
  digest : string;  (** MD5 of every op result and the final device media *)
  wall_ns : int;
  spans : (string * Probe.span) list;  (** snapshot at the end of the timed replay *)
  user_bytes : int;  (** data bytes the stream writes under [/dur] *)
  wc : Kblock.Wcache.t;
}

(* Replay a recorded kload op stream ([Fs_spec] ops with full VFS paths)
   through the stack, one op at a time, ticking the storm in proportion
   so its windows cover the same share of the stream as of the run. *)
let replay ~probed ~storm ~total_ticks ~seed (ops : Fs.op array) =
  let spans =
    List.map (fun n -> (n, Probe.span ())) ([ "vfs"; "memfs"; "journalfs" ] @ io_layers)
  in
  let sp n = List.assoc n spans in
  let io_probe n io = if probed then Probe.io (sp n) io else io in
  let fs_probe n i = if probed then Probe.fs_instance (sp n) i else i in
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed () in
  let dev =
    Kblock.Blockdev.create ~nblocks:geometry.Kfs.Journalfs.nblocks
      ~block_size:geometry.Kfs.Journalfs.block_size
  in
  let wc =
    Kblock.Wcache.create ~name:"wcache" ~fp ~seed (io_probe "blockdev" (Kblock.Blockdev.io dev))
  in
  let flaky = Kblock.Flakydev.create ~fp (io_probe "wcache" (Kblock.Wcache.io wc)) in
  let resilient =
    Kblock.Resilient.create ~max_attempts:6 (io_probe "flakydev" (Kblock.Flakydev.io flaky))
  in
  let io = io_probe "resilient" (Kblock.Resilient.io resilient) in
  let fs0 = Kfs.Journalfs.mkfs_on ~geometry ~io Kfs.Journalfs.Journaled dev in
  let wrap_dur fs =
    Kvfs.Iface.panicky ~site:"dur.panic" ~fp
      (fs_probe "journalfs" (Kvfs.Iface.instance (module Kfs.Journalfs.Journaled_fs) fs))
  in
  (* The microreboot remount (drain the cache, journal-replay mount) is
     journalfs work, so it runs under the journalfs span. *)
  let remake_dur () =
    let rec go attempts =
      let (_ : unit Ksim.Errno.r) = Kblock.Wcache.flush wc in
      let fs = Kfs.Journalfs.mount ~geometry ~io Kfs.Journalfs.Journaled dev in
      if Kfs.Journalfs.is_corrupt fs && attempts < 8 then go (attempts + 1) else fs
    in
    let remount () = go 0 in
    wrap_dur (if probed then Probe.time (sp "journalfs") remount else remount ())
  in
  let memfs () = fs_probe "memfs" (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) in
  let svc () = Kvfs.Iface.panicky ~site:"svc.panic" ~fp (memfs ()) in
  let vfs = Kvfs.Vfs.create () in
  let must = function
    | Ok () -> ()
    | Error e -> failwith ("replay: mount failed: " ^ Ksim.Errno.to_string e)
  in
  must (Kvfs.Vfs.mount vfs ~at:[] (memfs ()));
  must (Kvfs.Vfs.mount vfs ~at:[ "dur" ] ~remake:remake_dur ~policy:sup_policy (wrap_dur fs0));
  must (Kvfs.Vfs.mount vfs ~at:[ "svc" ] ~remake:svc ~policy:sup_policy (svc ()));
  (match Kvfs.Vfs.apply vfs (Fs.Mkdir (Fs.path_of_string "/meta")) with
  | Ok _ -> ()
  | Error e -> failwith ("replay: /meta: " ^ Ksim.Errno.to_string e));
  let storm_t = Ksim.Storm.create ~fp () in
  Ksim.Storm.add storm_t (Kload.Harness.bursts_for storm ~total_ticks);
  let n = max 1 (Array.length ops) in
  let results = Array.make (Array.length ops) (Ok Fs.Unit) in
  let apply op =
    if probed then Probe.time (sp "vfs") (fun () -> Kvfs.Vfs.apply vfs op)
    else Kvfs.Vfs.apply vfs op
  in
  (* the tenants' retry policy for a quiescing mount *)
  let rec drive op eintr_left =
    match apply op with
    | Error Ksim.Errno.EINTR when eintr_left > 0 -> drive op (eintr_left - 1)
    | r -> r
  in
  let t0 = Probe.now_ns () in
  Array.iteri
    (fun i op ->
      Ksim.Storm.tick storm_t (i * total_ticks / n);
      results.(i) <- drive op 4)
    ops;
  let wall_ns = Probe.now_ns () - t0 in
  let spans = List.map (fun (name, s) -> (name, { s with Probe.calls = s.Probe.calls })) spans in
  Ksim.Storm.disable storm_t;
  Ksim.Failpoint.disable_all fp;
  let (_ : unit Ksim.Errno.r) = Kblock.Wcache.flush wc in
  Kblock.Blockdev.flush dev;
  let media = Kblock.Blockdev.snapshot_media dev in
  let user_bytes =
    Array.fold_left
      (fun acc -> function
        | Fs.Write { file = "dur" :: _; data; _ } -> acc + String.length data
        | _ -> acc)
      0 ops
  in
  {
    digest = Digest.to_hex (Digest.string (Marshal.to_string (results, media) []));
    wall_ns;
    spans;
    user_bytes;
    wc;
  }

let replay_layers (r : replay) =
  let sp n = List.assoc n r.spans in
  let below = function
    | "resilient" -> Some "flakydev"
    | "flakydev" -> Some "wcache"
    | "wcache" -> Some "blockdev"
    | _ -> None
  in
  let self n = (sp n).Probe.ns - match below n with Some b -> (sp b).Probe.ns | None -> 0 in
  List.concat_map
    (fun l ->
      let s = sp l in
      [
        ("io." ^ l ^ ".calls", fi s.Probe.calls);
        ("io." ^ l ^ ".self_ns", fi (self l));
        ("io." ^ l ^ ".bytes_written", fi s.Probe.bytes_written);
        ("io." ^ l ^ ".errors", fi s.Probe.errors);
      ])
    io_layers
  @ [
      ("io.resilient.retries", fi ((sp "flakydev").Probe.calls - (sp "resilient").Probe.calls));
      ("wcache.hits", fi (Kblock.Wcache.cache_hits r.wc));
      ("wcache.writebacks", fi (Kblock.Wcache.writebacks r.wc));
      ("wcache.flushes", fi (Kblock.Wcache.flushes r.wc));
      ("io.write_amp", ratio (sp "blockdev").Probe.bytes_written r.user_bytes);
      ("journalfs.calls", fi (sp "journalfs").Probe.calls);
      ("journalfs.self_ns", fi ((sp "journalfs").Probe.ns - (sp "resilient").Probe.ns));
      ( "vfs.self_ns",
        fi ((sp "vfs").Probe.ns - (sp "journalfs").Probe.ns - (sp "memfs").Probe.ns) );
    ]

let load_round ~durable ~scale ~seed ~traced =
  let spec = load_spec ~durable scale and storm = load_storm ~durable in
  let ready_ns = Probe.now_ns () in
  if not traced then begin
    let r, ns = timed (fun () -> Kload.Harness.run ~spec ~storm ~seed ()) in
    let rep = r.Kload.Harness.report in
    {
      ready_ns;
      units = [ (rep.Kload.Report.executed, ns) ];
      attempted = rep.Kload.Report.planned;
      failures = load_checks r;
      fingerprint = rep.Kload.Report.fingerprint;
      layers = load_stats r;
      traced_ns = 0;
      plain_ns = 0;
    }
  end
  else begin
    let recorded = ref [] in
    let sink op = recorded := op :: !recorded in
    let r, run_ns = timed (fun () -> Kload.Harness.run ~spec ~storm ~sink ~seed ()) in
    let rep = r.Kload.Harness.report in
    let ops = Array.of_list (List.rev !recorded) in
    let total_ticks = Kload.Spec.total_ops spec in
    (* bare, probed, bare: each replay leaves a larger heap behind (the
       run's caches stay pinned), so the two bare replays bracket the
       probed one *)
    let bare = replay ~probed:false ~storm ~total_ticks ~seed ops in
    let probed = replay ~probed:true ~storm ~total_ticks ~seed ops in
    let bare_after = replay ~probed:false ~storm ~total_ticks ~seed ops in
    let plain_ns = (bare.wall_ns + bare_after.wall_ns) / 2 in
    {
      ready_ns;
      units = [ (rep.Kload.Report.executed, run_ns) ];
      attempted = rep.Kload.Report.planned;
      failures =
        load_checks r
        @ check
            (bare.digest = probed.digest && bare.digest = bare_after.digest)
            "probed replay differs from the bare replay";
      fingerprint = rep.Kload.Report.fingerprint;
      layers =
        load_stats r @ replay_layers probed
        @ [ ("kload.residual_ns", fi (run_ns - plain_ns)) ];
      traced_ns = probed.wall_ns;
      plain_ns;
    }
  end

(* krefine -------------------------------------------------------------------- *)

let refine_config ~seed =
  { Kspec.Krefine.default_config with Kspec.Krefine.seed; images_per_op = 2; crash_every = 8 }

(* A fixed-length prefix of a recorded trace, so every seed checks the
   same number of ops. *)
let refine_trace ~scale ~seed =
  let len = match scale with Full -> 100 | Tiny -> 40 in
  List.filteri (fun i _ -> i < len) (Kharness.recorded_trace ~target_ops:len ~seed ())

(* One sweep: every registered harness over the trace. *)
let sweep ?spans ~config trace =
  List.map
    (fun (e : Kharness.entry) ->
      let e =
        match spans with
        | None -> e
        | Some m -> { e with Kharness.machine = Probe.machine m e.Kharness.machine }
      in
      Kharness.run ~config e trace)
    (Kharness.all ())

let coverage_fingerprint covs =
  Digest.to_hex (Digest.string (String.concat "," (List.map Kspec.Krefine.coverage_fingerprint covs)))

let sum_cov f covs = List.fold_left (fun acc c -> acc + f c) 0 covs

(* The steps one crash image costs, at the harness geometry, each timed
   alone through its public function: copying the media, materializing
   a device from it, snapshotting a device, and the journal-replay
   mount. *)
let crash_anatomy ~reps =
  let g = geometry in
  let dev =
    Kblock.Blockdev.create ~nblocks:g.Kfs.Journalfs.nblocks ~block_size:g.Kfs.Journalfs.block_size
  in
  let fs = Kfs.Journalfs.mkfs_on ~geometry:g Kfs.Journalfs.Journaled dev in
  let p = Fs.path_of_string in
  List.iter
    (fun op -> ignore (Kfs.Journalfs.apply fs op : Fs.result))
    [
      Fs.Create (p "/a");
      Fs.Write { file = p "/a"; off = 0; data = String.make 1500 'a' };
      Fs.Mkdir (p "/d");
      Fs.Create (p "/d/b");
      Fs.Write { file = p "/d/b"; off = 0; data = String.make 700 'b' };
    ];
  Kblock.Blockdev.flush dev;
  let media = Kblock.Blockdev.snapshot_media dev in
  let block_size = g.Kfs.Journalfs.block_size in
  (* median wall us of [call (prepare ())]; [prepare] runs untimed *)
  let us prepare call =
    let sample () =
      let x = prepare () in
      snd (timed (fun () -> ignore (Sys.opaque_identity (call x))))
    in
    fi (Probe.median (List.init reps (fun _ -> sample ()))) /. 1e3
  in
  let nothing () = () in
  [
    ("crash.copy_us", us nothing (fun () -> Array.map Bytes.copy media));
    ("crash.of_media_us", us nothing (fun () -> Kblock.Blockdev.of_media ~block_size media));
    ("crash.snapshot_us", us nothing (fun () -> Kblock.Blockdev.snapshot_media dev));
    ( "crash.mount_us",
      us
        (fun () -> Kblock.Blockdev.of_media ~block_size (Array.map Bytes.copy media))
        (Kfs.Journalfs.mount ~geometry:g Kfs.Journalfs.Journaled) );
  ]

let refine_round ~scale ~seed ~traced =
  let trace = refine_trace ~scale ~seed in
  let config = refine_config ~seed in
  let ready_ns = Probe.now_ns () in
  let m = Probe.machine_spans () in
  let covs, ns = timed (fun () -> sweep ?spans:(if traced then Some m else None) ~config trace) in
  let failures =
    List.concat_map
      (fun c ->
        check (Kspec.Krefine.is_clean c)
          (Printf.sprintf "%s: %d divergences" c.Kspec.Krefine.harness
             (List.length c.Kspec.Krefine.divergences)))
      covs
  in
  let images = sum_cov (fun c -> c.Kspec.Krefine.crash_images) covs in
  let states = sum_cov (fun c -> c.Kspec.Krefine.states_explored) covs in
  let counts =
    [
      ("krefine.crash_points", fi (sum_cov (fun c -> c.Kspec.Krefine.crash_points) covs));
      ("krefine.crash_images", fi images);
      ("krefine.skipped_images", fi (sum_cov (fun c -> c.Kspec.Krefine.skipped_images) covs));
      ("krefine.states_per_s", fi states *. 1e9 /. fi ns);
    ]
  in
  let layers =
    if not traced then counts
    else
      let spent =
        List.fold_left (fun acc s -> acc + s.Probe.ns) 0
          [ m.Probe.init; m.step; m.interp; m.inv; m.crash_images ]
      in
      counts
      @ [
          ("krefine.step_ns", fi m.Probe.step.Probe.ns);
          ("krefine.interp_ns", fi m.Probe.interp.Probe.ns);
          ("krefine.inv_ns", fi m.Probe.inv.Probe.ns);
          ("krefine.crash_images_ns", fi m.Probe.crash_images.Probe.ns);
          ("krefine.check_ns", fi (ns - spent));
        ]
      @ crash_anatomy ~reps:(match scale with Full -> 15 | Tiny -> 2)
  in
  {
    ready_ns;
    units = [ (images, ns) ];
    attempted = sum_cov (fun c -> c.Kspec.Krefine.ops) covs;
    failures;
    fingerprint = coverage_fingerprint covs;
    layers;
    traced_ns = (if traced then ns else 0);
    plain_ns = 0;
  }

(* klint ----------------------------------------------------------------------- *)

let rule_counts findings =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (f : Klint.Finding.t) ->
      let id = Klint.Finding.rule_id f.Klint.Finding.rule in
      Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id)))
    findings;
  Hashtbl.fold (fun id n acc -> Printf.sprintf "%s=%d" id n :: acc) tbl []
  |> List.sort String.compare |> String.concat ";"

let tree_findings (t : Klint.Engine.tree_result) =
  t.Klint.Engine.findings @ t.Klint.Engine.ktcb.Klint.Ktcb.findings
  @ t.Klint.Engine.kdur.Klint.Kdur.findings

(* One whole-tree pass split into its phases, each timed by the calls
   [Klint.Engine.lint_tree] makes.  The callgraph is timed once on its
   own; each interprocedural pass still builds its own inside. *)
let lint_traced ~root =
  let module K = Klint in
  let s =
    List.map
      (fun n -> (n, Probe.span ()))
      [ "parse"; "rules"; "callgraph"; "kracer"; "kown"; "ktcb"; "kdur" ]
  in
  let t n f = Probe.time (List.assoc n s) f in
  let files = K.Loc.ml_files_under ~root "lib" in
  let parsed, parse_errors =
    List.partition_map
      (fun rel ->
        match t "parse" (fun () -> K.Kparse.parse (Filename.concat root rel)) with
        | Ok st -> Left (rel, st)
        | Error msg -> Right (rel, msg))
      files
  in
  let rules =
    List.concat_map
      (fun (rel, st) -> t "rules" (fun () -> K.Engine.lint_structure ~file:rel ~prefix:"" st))
      parsed
  in
  let (_ : K.Callgraph.t) = t "callgraph" (fun () -> K.Callgraph.build ~root parsed) in
  let kracer = t "kracer" (fun () -> K.Kracer.analyze ~root parsed) in
  let kown = t "kown" (fun () -> K.Kown.analyze ~root parsed) in
  let ktcb = t "ktcb" (fun () -> K.Ktcb.analyze ~root parsed ~summaries:kown.K.Kown.summaries) in
  let kdur = t "kdur" (fun () -> K.Kdur.analyze ~root parsed) in
  (* the rest of what lint_tree does, so the traced pass is the same work *)
  let (_ : K.Kverify.result) = K.Kverify.scan parsed in
  let (_ : int) =
    List.fold_left (fun acc rel -> acc + K.Loc.count_file (Filename.concat root rel)) 0 files
  in
  let findings =
    K.Finding.sort (kown.K.Kown.findings @ kracer.K.Kracer.findings @ rules)
    @ ktcb.K.Ktcb.findings @ kdur.K.Kdur.findings
  in
  ( files,
    parse_errors,
    findings,
    List.map (fun (n, sp) -> ("klint." ^ n ^ "_ms", sp.Probe.ns)) s )

let lint_round ~scale ~root ~traced =
  let passes = match scale with Full -> 5 | Tiny -> 1 in
  let files = Klint.Loc.ml_files_under ~root "lib" in
  let ready_ns = Probe.now_ns () in
  let bare_pass () =
    let t = Klint.Engine.lint_tree ~root in
    (t.Klint.Engine.files, t.Klint.Engine.parse_errors, tree_findings t, [])
  in
  (* a traced round pairs every probed pass with a bare one, so the
     tracing overhead and the finding counts compare in-process *)
  let runs, bare_runs =
    List.split
      (List.init passes (fun _ ->
           if traced then
             let bare = timed bare_pass in
             (timed (fun () -> lint_traced ~root), [ bare ])
           else (timed bare_pass, [])))
  in
  let bare_runs = List.concat bare_runs in
  let counts = List.map (fun ((_, _, f, _), _) -> rule_counts f) (runs @ bare_runs) in
  let first = List.hd counts in
  let failures =
    check (files <> []) "no source files found"
    @ List.concat_map
        (fun ((fs, errs, _, _), _) ->
          check (errs = []) (Printf.sprintf "%d parse errors" (List.length errs))
          @ check (List.length fs = List.length files) "file set changed between passes")
        runs
    @ check (List.for_all (String.equal first) counts)
        "finding counts differ between passes, or between probed and bare passes"
  in
  let layers =
    if not traced then []
    else
      let phases = List.map fst (match runs with ((_, _, _, l), _) :: _ -> l | [] -> []) in
      List.map
        (fun n -> (n, fi (Probe.median (List.map (fun ((_, _, _, l), _) -> List.assoc n l) runs)) /. 1e6))
        phases
  in
  {
    ready_ns;
    units = List.map (fun ((fs, _, _, _), ns) -> (List.length fs, ns)) runs;
    attempted = passes * List.length files;
    failures;
    fingerprint = Digest.to_hex (Digest.string first);
    layers;
    traced_ns =
      (if not traced then 0
       else
         (* the separately timed callgraph build is not lint_tree's work *)
         Probe.median
           (List.map (fun ((_, _, _, l), ns) -> ns - List.assoc "klint.callgraph_ms" l) runs));
    plain_ns = (if traced then Probe.median (List.map snd bare_runs) else 0);
  }

let run ~workload ~scale ~seed ~traced ~root =
  match workload with
  | "load-mixed" -> load_round ~durable:false ~scale ~seed ~traced
  | "load-durable" -> load_round ~durable:true ~scale ~seed ~traced
  | "refine-crash" -> refine_round ~scale ~seed ~traced
  | "lint-tree" -> lint_round ~scale ~root ~traced
  | w -> invalid_arg ("unknown workload " ^ w)
