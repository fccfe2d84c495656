(* The load harness.  One run = one kernel, one failpoint registry, one
   stats table, [spec.tenants] cooperative processes, one storm.

   Everything observable is deterministic in (spec, storm, seed): tenant
   streams are private SplitMix64 generators, the scheduler is
   deterministic round-robin, the storm ticks on the global op counter,
   and time is a simulated clock advanced by an explicit cost model —
   never the wall clock. *)

type storm_preset =
  | No_storm
  | Panic_wave
  | Eio_wave
  | Sock_storm
  | Cache_wave
  | Mixed

let storm_name = function
  | No_storm -> "none"
  | Panic_wave -> "panic-wave"
  | Eio_wave -> "eio-wave"
  | Sock_storm -> "sock-storm"
  | Cache_wave -> "cache-wave"
  | Mixed -> "mixed"

let all_storms = [ No_storm; Panic_wave; Eio_wave; Sock_storm; Cache_wave; Mixed ]

let storm_of_string s =
  List.find_opt (fun p -> storm_name p = s) all_storms

(* Burst windows as twelfths of the run's tick space, so a preset scales
   from a 100-op smoke to a 100k-op acceptance run unchanged. *)
let bursts_for preset ~total_ticks =
  let w site lo hi probability =
    let start = max 0 (total_ticks * lo / 12) in
    let stop = max (start + 1) (total_ticks * hi / 12) in
    { Ksim.Storm.site; start; stop; probability; times = -1 }
  in
  let panic =
    [
      w "svc.panic" 2 4 0.04;
      w "dur.panic" 3 6 0.015;
      w Knet.Sock.Supervised.panic_site 6 9 0.04;
    ]
  in
  let eio =
    [
      w "flaky.write-eio" 2 4 0.25;
      w "flaky.read-eio" 4 6 0.25;
      w "flaky.torn-write" 2 6 0.05;
    ]
  in
  (* Two overlapping bursts on one site: the composition semantics
     (union probability, summed budgets) exercised in anger. *)
  let sock =
    [
      w Knet.Sock.Supervised.panic_site 2 7 0.03;
      w Knet.Sock.Supervised.panic_site 5 9 0.03;
    ]
  in
  (* Cache-loss waves: the drive lies about flush and destages out of
     order.  Correct barrier discipline (journalfs keeps its barriers)
     makes both invisible to the durability audit — the SLO gate proves
     it. *)
  let cache =
    [
      w "wcache.flush-dropped" 3 6 0.2;
      w "wcache.writeback-reorder" 2 8 0.5;
    ]
  in
  match preset with
  | No_storm -> []
  | Panic_wave -> panic
  | Eio_wave -> eio
  | Sock_storm -> sock
  | Cache_wave -> cache
  | Mixed -> panic @ eio @ sock @ cache

type result = {
  report : Report.t;
  tenant_op_counts : int array;
  class_kind_counts : int array;
  crashed_tenants : int;
  stats : Ksim.Kstats.t;
}

(* A roomier device than the default: the shared key space must fit
   payload-ceiling files with headroom (ENOSPC is a workload bug here,
   not an interesting fault). *)
let geometry =
  { Kfs.Journalfs.nblocks = 4096; block_size = 512; jblocks = 96; ninodes = 128 }

(* Supervisors under storm need a restart budget that cannot exhaust (a
   Failed mount turns the rest of the run into a degraded-mode study,
   which is not what the SLO gates measure) and the default backoff
   curve, which caps recovery at backoff_cap + one op. *)
let sup_policy =
  {
    Ksim.Supervisor.restart_budget = 1_000_000;
    backoff_base = 200;
    backoff_cap = 5_000;
    op_cost = 100;
  }

(* Cost model, simulated ns: base per kind plus a size-proportional term,
   plus penalties per EINTR retry / ESTALE reopen.  Arbitrary but fixed —
   latency percentiles are comparable across runs and seeds. *)
let base_cost (op : Gen.op) =
  match op.kind with
  | Spec.Meta -> 400
  | Spec.Data_write -> 900 + (op.size / 8)
  | Spec.Data_read -> 500 + (op.size / 16)
  | Spec.Net -> 600 + (op.size / 8)
  | Spec.Churn -> 500

let eintr_penalty = 300
let estale_penalty = 500
let version_prefix_len = 10 (* "v%08d:" *)

(* A durable write's content, "v%08d:" then 'x' padding up to [size],
   built in one allocation (versions stay below 10^8: the audit parses
   eight digits). *)
let versioned v size =
  let b = Bytes.make (version_prefix_len + max 6 (size - version_prefix_len)) 'x' in
  Bytes.set b 0 'v';
  let v = ref v in
  for i = 8 downto 1 do
    Bytes.set b i (Char.chr (Char.code '0' + (!v mod 10)));
    v := !v / 10
  done;
  Bytes.set b 9 ':';
  Ksim.Frame.Buf.freeze b

let run ?(spec = Spec.default) ?(storm = Mixed) ?admission ?sink ~seed () =
  (match Spec.validate spec with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Kload.Harness.run: " ^ e));
  (* Trace recording: every admitted FS-level operation is also announced
     to [sink] as the abstract [Fs_spec] op it intends (full VFS paths;
     [Trace.record] filters and rebases).  Emission happens once per op,
     before the retry loop, so a recorded trace is retry-free; with no
     sink, no op is built. *)
  let tracing = Option.is_some sink and emit = Option.value sink ~default:ignore in
  let fsp = Kspec.Fs_spec.path_of_string in
  let total = Spec.total_ops spec in
  let stats = Ksim.Kstats.create () in
  let counter name = Ksim.Kstats.counter stats ("kload." ^ name) in
  let contended = counter "write_contended" and acked_writes = counter "acked_writes" in
  let unacked_writes = counter "unacked_writes" and shed = counter "shed" in
  let latency =
    (* by [Spec.kind_id] *)
    Array.of_list
      (List.map
         (fun k -> Ksim.Kstats.histogram stats ("kload.lat." ^ Spec.kind_name k))
         Spec.all_kinds)
  in
  let errno_counters =
    List.map (fun e -> (e, counter ("err." ^ Ksim.Errno.to_string e))) Ksim.Errno.all
  in
  let fp = Ksim.Failpoint.create ~seed () in

  (* Block stack under /dur: journalfs over retries over fault injection
     over the volatile write-back cache over the raw device — the cache
     sits below Flakydev because it models the disk's own DRAM, not a
     kernel buffer.  The cache is never power-lost mid-run (kload is a
     liveness/SLO study, krefine owns the crash surface), so committed
     journal transactions survive every microreboot; but a cache-wave
     storm makes flush lie and writeback destage out of order, which
     correct barrier discipline must absorb. *)
  let dev =
    Kblock.Blockdev.create ~nblocks:geometry.Kfs.Journalfs.nblocks
      ~block_size:geometry.Kfs.Journalfs.block_size
  in
  let wc = Kblock.Wcache.create ~name:"wcache" ~fp ~seed (Kblock.Blockdev.io dev) in
  let flaky = Kblock.Flakydev.create ~fp (Kblock.Wcache.io wc) in
  let resilient = Kblock.Resilient.create ~max_attempts:6 (Kblock.Flakydev.io flaky) in
  let io = Kblock.Resilient.io resilient in
  let fs0 = Kfs.Journalfs.mkfs_on ~geometry ~io Kfs.Journalfs.Journaled dev in

  let kernel = Kproc.Kernel.boot ~max_steps:(1_000_000 + (100 * total)) () in
  let vfs = Kproc.Kernel.vfs kernel in
  let dur_path = [ "dur" ] in
  let wrap_dur fs =
    Kvfs.Iface.panicky ~site:"dur.panic" ~fp
      (Kvfs.Iface.instance (module Kfs.Journalfs.Journaled_fs) fs)
  in
  (* A remount mid-EIO-wave can come up corrupt (every read path is
     still under fault injection); retrying redraws the fault stream, so
     a bounded number of attempts rides out the burst. *)
  let remount_dur () =
    let rec go attempts =
      (* Drain the write-back cache first: mount parses the raw device,
         and dirty cached blocks are invisible to it.  Under a cache-wave
         storm the drain itself can be a dropped flush — each retry
         redraws the fault stream, so the corrupt-mount loop also rides
         out lying-flush bursts. *)
      let (_ : unit Ksim.Errno.r) = Kblock.Wcache.flush wc in
      let fs = Kfs.Journalfs.mount ~geometry ~io Kfs.Journalfs.Journaled dev in
      if Kfs.Journalfs.is_corrupt fs && attempts < 8 then go (attempts + 1) else fs
    in
    go 0
  in
  let remake_dur () = wrap_dur (remount_dur ()) in
  let mounted =
    Kvfs.Vfs.mount vfs ~at:dur_path ~remake:remake_dur ~policy:sup_policy ~stats
      (wrap_dur fs0)
  in
  let make_svc () =
    Kvfs.Iface.panicky ~site:"svc.panic" ~fp (Kvfs.Iface.make (module Kfs.Memfs_typed) ())
  in
  let mounted_svc =
    Kvfs.Vfs.mount vfs ~at:[ "svc" ] ~remake:make_svc ~policy:sup_policy ~stats
      (make_svc ())
  in
  (match (mounted, mounted_svc) with
  | Ok (), Ok () -> ()
  | _ -> invalid_arg "Kload.Harness.run: mount failed");
  let sock = Knet.Sock.Supervised.create ~policy:sup_policy ~stats ~fp ~name:"sock" () in

  (* The metadata arena on the fault-free root. *)
  let setup_fops = Kvfs.File_ops.create vfs in
  (match Kvfs.File_ops.mkdir setup_fops "/meta" with
  | Ok () -> ()
  | Error _ -> invalid_arg "Kload.Harness.run: /meta setup failed");

  let storm_t = Ksim.Storm.create ~fp () in
  Ksim.Storm.add storm_t (bursts_for storm ~total_ticks:total);

  (* kebpf observability plane: per-tenant and class/kind counters
     computed by verified programs fed one event per executed op. *)
  let must_attach ~buckets prog =
    match Kebpf.Attach.attach_probe ~buckets prog with
    | Ok p -> p
    | Error _ -> invalid_arg "Kload.Harness.run: probe rejected"
  in
  let tprobe = must_attach ~buckets:spec.Spec.tenants Kebpf.Attach.tenant_probe in
  let ckprobe =
    must_attach ~buckets:(8 * List.length spec.Spec.classes) Kebpf.Attach.class_kind_probe
  in

  let plan = Gen.plan spec ~seed in
  let adm =
    Admission.create
      ~config:
        (match admission with
        | Some c -> c
        | None -> Admission.config_for ~tenants:spec.Spec.tenants)
      ~tenants:spec.Spec.tenants ()
  in

  let n = spec.Spec.tenants in
  let clock = ref 0 in
  let ticks = ref 0 in
  let versions = Array.make spec.Spec.keyspace 0 in
  let acked = Array.make spec.Spec.keyspace 0 in
  (* Per-key writer lock: a write span yields many times, and two
     interleaved writers on one key would leave the final value
     schedule-dependent — an older version can physically land last —
     so writers must hold the key exclusively to be acknowledgeable. *)
  let winflight = Array.make spec.Spec.keyspace 0 in
  let executed = Array.make n 0 in
  let ok = Array.make n 0 in
  let errors = Array.make n 0 in
  let acked_by = Array.make n 0 in
  let estale = Array.make n 0 in
  let eintr = Array.make n 0 in
  let streak = Array.make n 0 in
  let max_streak = Array.make n 0 in
  let net_bytes = Array.make n 0 in
  let sock_handles = Array.make n None in

  (* The retry policy every tenant applies: EINTR (the module is
     quiescing) retries a few times — each retry advances the
     supervisor's clock towards its backoff deadline — and ESTALE (the
     handle died with the old generation) reopens once.  [attempt] mints
     fresh handles on every call, so a plain re-call is the reopen.  One
     loop serves every op: it takes the attempt and its arguments (the
     tenant, the syscalls, the op and the bytes it sends), so an op
     builds no closure, and retries add their penalties to the tenant's
     [cost] slot. *)
  let cost = Array.make n 0 in
  let rec retry attempt tn sys op data eintr_left estale_left =
    match attempt tn sys op data with
    | Error Ksim.Errno.EINTR when eintr_left > 0 ->
        eintr.(tn) <- eintr.(tn) + 1;
        cost.(tn) <- cost.(tn) + eintr_penalty;
        retry attempt tn sys op data (eintr_left - 1) estale_left
    | Error Ksim.Errno.ESTALE when estale_left > 0 ->
        estale.(tn) <- estale.(tn) + 1;
        cost.(tn) <- cost.(tn) + estale_penalty;
        retry attempt tn sys op data eintr_left (estale_left - 1)
    | r -> r
  in
  let drive attempt tn sys op data = retry attempt tn sys op data 4 1 in

  let ( let* ) = Ksim.Errno.( let* ) in

  (* Every path an op names, formatted once per key. *)
  let paths n fmt = Array.init n (Printf.sprintf fmt) in
  let meta_dirs = paths 16 "/meta/d%d" and meta_files = paths spec.Spec.keyspace "/meta/f%d" in
  let dur_files = paths spec.Spec.keyspace "/dur/k%d" and svc_files = paths 32 "/svc/c%d" in

  let meta_op _tn (sys : Kproc.Kernel.sys) (op : Gen.op) _data =
    let dir = meta_dirs.(op.key mod 16) and file = meta_files.(op.key) in
    match op.key land 3 with
    | 0 -> (
        if tracing then begin
          emit (Kspec.Fs_spec.Mkdir (fsp dir));
          emit (Kspec.Fs_spec.Readdir (fsp "/meta"))
        end;
        match sys.mkdir dir with
        | Ok () | Error Ksim.Errno.EEXIST -> Result.map (fun _ -> ()) (sys.readdir "/meta")
        | Error e -> Error e)
    | 1 ->
        if tracing then emit (Kspec.Fs_spec.Create (fsp file));
        let* fd = sys.openf ~flags:[ Kvfs.File_ops.O_CREAT; Kvfs.File_ops.O_WRONLY ] file in
        sys.close fd
    | 2 ->
        if tracing then emit (Kspec.Fs_spec.Readdir (fsp "/meta"));
        Result.map (fun _ -> ()) (sys.readdir "/meta")
    | _ -> (
        if tracing then emit (Kspec.Fs_spec.Unlink (fsp file));
        match sys.unlink file with Ok () | Error Ksim.Errno.ENOENT -> Ok () | Error e -> Error e)
  in

  let dread_attempt _tn (sys : Kproc.Kernel.sys) (op : Gen.op) _data =
    match sys.openf dur_files.(op.key) with
    | Error Ksim.Errno.ENOENT -> Ok ()
    | Error e -> Error e
    | Ok fd ->
        let res = Result.map (fun (_ : string) -> ()) (sys.read fd ~len:op.size) in
        let (_ : unit Ksim.Errno.r) = sys.close fd in
        res
  in
  let dread_op tn sys (op : Gen.op) =
    if tracing then
      emit (Kspec.Fs_spec.Read { file = fsp dur_files.(op.key); off = 0; len = op.size });
    drive dread_attempt tn sys op ""
  in

  (* A durable write: take the key's writer lock, bump its global
     version, write "v%08d:<payload>" at offset 0 (never truncate: an
     interrupted rewrite must leave the previous version parseable),
     fsync, and ack only if the whole sequence succeeded inside one
     mount generation.  The try-lock keeps write spans on a key
     disjoint — a write span yields many times, and two interleaved
     writers would leave the final value schedule-dependent, unackable
     — so a contended writer degrades to a read of the key instead
     (optimistic-concurrency backoff, counted as [write_contended]). *)
  let dwrite_attempt _tn (sys : Kproc.Kernel.sys) (op : Gen.op) content =
    let* fd =
      sys.openf ~flags:[ Kvfs.File_ops.O_CREAT; Kvfs.File_ops.O_WRONLY ] dur_files.(op.key)
    in
    let res =
      let* _n = sys.write fd content in
      sys.fsync ()
    in
    let (_ : unit Ksim.Errno.r) = sys.close fd in
    res
  in
  let dwrite_op tn sys (op : Gen.op) =
    let k = op.key in
    if winflight.(k) > 0 then begin
      Ksim.Kstats.bump contended;
      dread_op tn sys op
    end
    else begin
      winflight.(k) <- 1;
      versions.(k) <- versions.(k) + 1;
      let v = versions.(k) and file = dur_files.(k) in
      let content = versioned v op.size in
      if tracing then begin
        emit (Kspec.Fs_spec.Create (fsp file));
        emit (Kspec.Fs_spec.Write { file = fsp file; off = 0; data = content });
        emit Kspec.Fs_spec.Fsync
      end;
      let epoch0 = Kvfs.Vfs.epoch_at vfs dur_path in
      let r = drive dwrite_attempt tn sys op content in
      winflight.(k) <- 0;
      match r with
      | Ok () when Kvfs.Vfs.epoch_at vfs dur_path = epoch0 ->
          acked.(k) <- max acked.(k) v;
          acked_by.(tn) <- acked_by.(tn) + 1;
          Ksim.Kstats.bump acked_writes;
          Ok ()
      | Ok () ->
          (* Committed into an unknown generation: completed, not acked. *)
          Ksim.Kstats.bump unacked_writes;
          Ok ()
      | Error e -> Error e
    end
  in

  let net_attempt tn _sys _op request =
    let* h =
      match sock_handles.(tn) with
      | Some h -> Ok h
      | None ->
          let* h = Knet.Sock.Supervised.socket_pair sock "dgram" in
          let* () = Knet.Sock.Supervised.connect sock h in
          sock_handles.(tn) <- Some h;
          Ok h
    in
    match Knet.Sock.Supervised.rpc sock h request with
    | Ok response ->
        net_bytes.(tn) <- net_bytes.(tn) + String.length response;
        Ok ()
    | Error Ksim.Errno.ESTALE ->
        (* Dead-generation handle: drop it so the retry mints a fresh
           one from the rebooted layer. *)
        sock_handles.(tn) <- None;
        Error Ksim.Errno.ESTALE
    | Error e -> Error e
  in

  let churn_attempt _tn (sys : Kproc.Kernel.sys) (op : Gen.op) data =
    let file = svc_files.(op.key mod 32) in
    match op.key land 1 with
    | 0 ->
        let* fd = sys.openf ~flags:[ Kvfs.File_ops.O_CREAT; Kvfs.File_ops.O_WRONLY ] file in
        let res = Result.map (fun (_ : int) -> ()) (sys.write fd data) in
        let (_ : unit Ksim.Errno.r) = sys.close fd in
        res
    | _ -> (
        match sys.unlink file with Ok () | Error Ksim.Errno.ENOENT -> Ok () | Error e -> Error e)
  in
  let churn_op tn sys (op : Gen.op) =
    let file = svc_files.(op.key mod 32) in
    if tracing then begin
      match op.key land 1 with
      | 0 ->
          emit (Kspec.Fs_spec.Create (fsp file));
          emit (Kspec.Fs_spec.Write { file = fsp file; off = 0; data = "churn" })
      | _ -> emit (Kspec.Fs_spec.Unlink (fsp file))
    end;
    drive churn_attempt tn sys op "churn"
  in

  let tenant_prog (tn : Gen.tenant) (sys : Kproc.Kernel.sys) =
    for _ = 1 to spec.Spec.ops_per_tenant do
      let op = Gen.next_op plan tn in
      clock := !clock + op.think_ns;
      incr ticks;
      Ksim.Storm.tick storm_t !ticks;
      let read_only = op.kind = Spec.Data_read in
      match Admission.offer adm ~now:!clock ~tenant:tn.id ~read_only with
      | Admission.Shed ->
          (* Refused with EAGAIN before touching the kernel: the bounded
             queue or the degraded mode said no. *)
          Ksim.Kstats.bump shed;
          clock := !clock + 100
      | Admission.Admit ->
          executed.(tn.id) <- executed.(tn.id) + 1;
          let ev =
            Kebpf.Attach.encode_load_event ~tenant:tn.id ~class_id:tn.class_ix
              ~kind:(Spec.kind_id op.kind) ~size:op.size
          in
          Kebpf.Attach.probe_event tprobe ev;
          Kebpf.Attach.probe_event ckprobe ev;
          cost.(tn.id) <- base_cost op;
          let res =
            match op.kind with
            | Spec.Meta -> drive meta_op tn.id sys op ""
            | Spec.Data_write -> dwrite_op tn.id sys op
            | Spec.Data_read -> dread_op tn.id sys op
            | Spec.Net -> drive net_attempt tn.id sys op (String.make (min 512 op.size) 'r')
            | Spec.Churn -> churn_op tn.id sys op
          in
          clock := !clock + cost.(tn.id);
          Ksim.Kstats.record latency.(Spec.kind_id op.kind) cost.(tn.id);
          (match res with
          | Ok () ->
              ok.(tn.id) <- ok.(tn.id) + 1;
              streak.(tn.id) <- 0
          | Error e ->
              errors.(tn.id) <- errors.(tn.id) + 1;
              streak.(tn.id) <- streak.(tn.id) + 1;
              if streak.(tn.id) > max_streak.(tn.id) then
                max_streak.(tn.id) <- streak.(tn.id);
              Ksim.Kstats.bump (List.assq e errno_counters))
    done;
    0
  in

  Array.iter
    (fun tn ->
      let (_ : int) =
        Kproc.Kernel.spawn kernel
          ~name:("tenant" ^ string_of_int tn.Gen.id)
          (tenant_prog tn)
      in
      ())
    (Gen.tenants plan);
  Kproc.Kernel.run kernel;

  (* Heal, and aggregate the supervisors before the audit swaps the
     [/dur] mount out: the two supervised mounts plus the socket layer,
     merged into one recovery histogram. *)
  Ksim.Storm.disable storm_t;
  Ksim.Failpoint.disable_all fp;
  let sups =
    Knet.Sock.Supervised.supervisor sock :: List.map snd (Kvfs.Vfs.supervisors vfs)
  in
  let recovery_hist = Ksim.Hist.create () in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sups in
  List.iter (fun s -> Ksim.Hist.merge_into ~dst:recovery_hist (Ksim.Supervisor.recovery_hist s)) sups;
  Ksim.Failpoint.publish fp stats;

  (* Audit durability against a {e fresh} journal-replay remount of the
     healed device — the durability claim itself: every acked version
     must be readable at (or past) its acknowledged version.  (Journal
     replay never rolls an acknowledged write back; later successful
     writes only raise the version.)  The remount also sidesteps a live
     instance the storm left errors=remount-ro or corrupt. *)
  (match Kvfs.Vfs.umount vfs ~at:dur_path with Ok () -> () | Error _ -> ());
  (match
     Kvfs.Vfs.mount vfs ~at:dur_path
       (Kvfs.Iface.instance (module Kfs.Journalfs.Journaled_fs) (remount_dur ()))
   with
  | Ok () -> ()
  | Error _ -> invalid_arg "Kload.Harness.run: audit remount failed");
  let audit_fops = Kvfs.File_ops.create vfs in
  let lost = ref 0 in
  let read_version k =
    match Kvfs.File_ops.openf audit_fops dur_files.(k) with
    | Error _ -> None
    | Ok fd -> (
        let res = Kvfs.File_ops.read audit_fops fd ~len:version_prefix_len in
        let (_ : unit Ksim.Errno.r) = Kvfs.File_ops.close audit_fops fd in
        match res with
        | Error _ -> None
        | Ok s ->
            if String.length s = version_prefix_len && s.[0] = 'v' then
              int_of_string_opt (String.sub s 1 8)
            else None)
  in
  Array.iteri
    (fun k acked_v ->
      if acked_v > 0 then
        match read_version k with
        | Some v when v >= acked_v -> ()
        | _ -> incr lost)
    acked;

  let counters =
    Array.init n (fun i ->
        {
          Report.t_class = (Gen.tenants plan).(i).Gen.class_ix;
          t_planned = spec.Spec.ops_per_tenant;
          t_executed = executed.(i);
          t_ok = ok.(i);
          t_errors = errors.(i);
          t_shed = Admission.shed_of_tenant adm i;
          t_acked = acked_by.(i);
          t_estale = estale.(i);
          t_eintr = eintr.(i);
          t_max_streak = max_streak.(i);
          t_net_bytes = net_bytes.(i);
        })
  in
  let total_of f = Array.fold_left (fun acc c -> acc + f c) 0 counters in
  let sim_ns = !clock in
  let executed_total = total_of (fun c -> c.Report.t_executed) in
  let report =
    {
      Report.spec;
      seed;
      storm_name = storm_name storm;
      sim_ns;
      planned = total;
      executed = executed_total;
      ok = total_of (fun c -> c.Report.t_ok);
      errors = total_of (fun c -> c.Report.t_errors);
      shed = Admission.shed adm;
      acked_writes = total_of (fun c -> c.Report.t_acked);
      lost_acked_writes = !lost;
      injected_faults = Ksim.Failpoint.total_injected fp;
      oopses = sum Ksim.Supervisor.oopses;
      restarts = sum Ksim.Supervisor.restarts;
      escalations = sum Ksim.Supervisor.escalations;
      stale_rejected = sum Ksim.Supervisor.stale_rejected;
      recovery = Ksim.Hist.summarize recovery_hist;
      latency =
        List.map
          (fun k ->
            let name = Spec.kind_name k in
            (name, Ksim.Hist.summarize (Ksim.Kstats.hist stats ("kload.lat." ^ name))))
          Spec.all_kinds;
      throughput_ops_per_sec =
        (if sim_ns = 0 then 0.0 else float_of_int executed_total *. 1e9 /. float_of_int sim_ns);
      max_consec_errors = Array.fold_left max 0 max_streak;
      admission_transitions = Admission.transitions adm;
      class_histogram = Gen.class_histogram plan;
      tenant_counters = counters;
      fingerprint = Report.fingerprint_of counters;
    }
  in
  {
    report;
    tenant_op_counts = Kebpf.Attach.probe_counts tprobe;
    class_kind_counts = Kebpf.Attach.probe_counts ckprobe;
    crashed_tenants = List.length (Kproc.Kernel.crashed kernel);
    stats;
  }
