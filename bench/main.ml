(* The paper-shape benchmarks: regenerates every table and figure of the
   paper (printed first, computed from the record-level data), then times
   the microbenchmarks behind the paper's performance claims:

     modularity/*   cost of calling through the modular interface (step 1)
     typesafety/*   void*-dispatch vs typed dispatch (step 2)
     ownership/*    the three sharing models vs copying message passing (§4.3)
     roadmap/*      the same workload at every safety stage (steps 0-4)
     journal/*      journaling vs in-place writes, and batching (§4.4)
     resilience/*   the fault-injection stack with failpoints off and on
     supervision/*  the oops firewall's healthy path and a full microreboot
     ebpf/*         the verified extension VM vs a native hook
     mm/*           demand faults, resident reads, fork with copy-on-write
     kload/*        a small multi-tenant population, with and without a storm
     ablation/*     each checker's overhead, switchable off
     lint/*         each static pass over the whole tree
     refine/*       lockstep refinement and crash enumeration vs bare runs

   Absolute numbers are simulator numbers; the claims under test are the
   *shapes*: modular dispatch is cheap, sharing models stay flat while
   copying grows with payload size, safety stages cost a small constant
   factor, journaling pays a bounded write amplification.  The run ends
   with one line per shape claim.  It writes no files: perfbench
   (BENCHMARK.json) is the benchmark that records results. *)

open Bechamel

let std = Format.std_formatter

(* Running and printing ------------------------------------------------- *)

let run_group name tests =
  let grouped = Test.make_grouped ~name tests in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun test_name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (estimate :: _) -> estimate
          | Some [] | None -> nan
        in
        (test_name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "@.%s@." (String.make 64 '-');
  List.iter (fun (test_name, ns) -> Fmt.pr "%-44s %12.0f ns/op@." test_name ns) rows;
  rows

let staged f = Staged.stage f

(* BENCH-MOD: modular interface vs direct call --------------------------- *)

let bench_modularity () =
  let p = Kspec.Fs_spec.path_of_string in
  let direct_fs = Kfs.Memfs_typed.mkfs () in
  ignore (Kfs.Memfs_typed.apply direct_fs (Kspec.Fs_spec.Create (p "/f")));
  let inst = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
  ignore (Kvfs.Iface.instance_apply inst (Kspec.Fs_spec.Create (p "/f")));
  let vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (Kvfs.Vfs.apply vfs (Kspec.Fs_spec.Create (p "/f")));
  let stat = Kspec.Fs_spec.Stat (p "/f") in
  run_group "modularity"
    [
      Test.make ~name:"direct-call" (staged (fun () -> Kfs.Memfs_typed.apply direct_fs stat));
      Test.make ~name:"modular-interface" (staged (fun () -> Kvfs.Iface.instance_apply inst stat));
      Test.make ~name:"vfs-mount-table" (staged (fun () -> Kvfs.Vfs.apply vfs stat));
    ]

(* BENCH-TYPE: void* dispatch vs typed dispatch --------------------------- *)

let bench_typesafety () =
  let dyn_sock =
    match Knet.Sock.Dyn_style.socket "dgram" with Ok s -> s | Error _ -> assert false
  in
  let typed_pair =
    match Knet.Sock.Typed.socket_pair "dgram" with Ok pr -> pr | Error _ -> assert false
  in
  let key : int Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"bench.int" in
  let dyn_value = Ksim.Dyn.inject key 42 in
  let typed_amp = Knet.Amp.Typed.create () in
  Knet.Amp.Typed.register typed_amp ~channel:2 Knet.Amp.Data;
  let unsafe_amp = Knet.Amp.Unsafe.create () in
  Knet.Amp.Unsafe.register unsafe_amp ~channel:2 Knet.Amp.Data;
  let packet = Knet.Amp.encode_data ~channel:2 { Knet.Amp.body = "payload-bytes" } in
  run_group "typesafety"
    [
      Test.make ~name:"dyn-cast" (staged (fun () -> Ksim.Dyn.cast_exn key dyn_value));
      Test.make ~name:"dyn-socket-status"
        (staged (fun () -> Knet.Sock.Dyn_style.is_connected dyn_sock));
      Test.make ~name:"typed-socket-status"
        (staged (fun () -> Knet.Sock.Typed.is_connected typed_pair));
      Test.make ~name:"amp-unsafe-receive"
        (staged (fun () -> Knet.Amp.Unsafe.receive unsafe_amp packet));
      Test.make ~name:"amp-typed-receive"
        (staged (fun () -> Knet.Amp.Typed.receive typed_amp packet));
    ]

(* BENCH-OWN: the three sharing models vs copying ------------------------- *)

let bench_ownership () =
  let sizes = [ 64; 1024; 16384; 65536 ] in
  let tests =
    List.concat_map
      (fun size ->
        let ck = Ownership.Checker.create ~strict:true () in
        let cap = Ownership.Checker.alloc ck ~holder:"caller" ~size in
        let ch = Ownership.Message.create () in
        let payload = Bytes.make size 'p' in
        let one = Bytes.make 1 'x' in
        [
          Test.make
            ~name:(Printf.sprintf "share-exclusive-%db" size)
            (staged (fun () ->
                 Ownership.Checker.lend_exclusive ck cap ~to_:"callee" ~f:(fun b ->
                     Ownership.Checker.write ck b ~off:0 one)));
          Test.make
            ~name:(Printf.sprintf "share-shared-%db" size)
            (staged (fun () ->
                 Ownership.Checker.lend_shared ck cap ~to_:[ "callee" ] ~f:(fun borrowed ->
                     match borrowed with
                     | [ b ] -> ignore (Ownership.Checker.read ck b ~off:0 ~len:1)
                     | _ -> assert false)));
          Test.make
            ~name:(Printf.sprintf "transfer-cycle-%db" size)
            (staged (fun () ->
                 let c = Ownership.Checker.alloc ck ~holder:"caller" ~size in
                 let c' = Ownership.Checker.transfer ck c ~to_:"callee" in
                 Ownership.Checker.free ck c'));
          Test.make
            ~name:(Printf.sprintf "message-copy-%db" size)
            (staged (fun () -> ignore (Ownership.Message.call ch payload ~f:(fun req -> req))));
        ])
      sizes
  in
  run_group "ownership" tests

(* BENCH-STEPS: one workload, every safety stage --------------------------- *)

let bench_roadmap () =
  let trace = Kfs.Workload.generate ~seed:5 Kfs.Workload.Mixed ~ops:200 in
  let replay (module F : Kvfs.Iface.FS_OPS) () =
    let fs = F.mkfs () in
    List.iter (fun op -> ignore (F.apply fs op)) trace
  in
  run_group "roadmap"
    [
      Test.make ~name:"stage0-unsafe-200ops" (staged (replay (module Kfs.Memfs_unsafe.Modular)));
      Test.make ~name:"stage2-typed-200ops" (staged (replay (module Kfs.Memfs_typed)));
      Test.make ~name:"stage3-owned-200ops" (staged (replay (module Kfs.Memfs_owned)));
      Test.make ~name:"stage4-verified-200ops" (staged (replay (module Kfs.Memfs_verified)));
    ]

(* BENCH-JOURNAL: journaled vs direct, and fsync batching ------------------- *)

let bench_journal () =
  let p = Kspec.Fs_spec.path_of_string in
  let data = String.make 256 'j' in
  let fs_cycle ?(group_commit = false) mode ~ops_per_fsync () =
    let fs =
      Kfs.Journalfs.mkfs_on ~group_commit mode
        (Kblock.Blockdev.create ~nblocks:1024 ~block_size:512)
    in
    ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Create (p "/f")));
    for i = 0 to 19 do
      ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Write { file = p "/f"; off = 0; data }));
      if (i + 1) mod ops_per_fsync = 0 then ignore (Kfs.Journalfs.apply fs Kspec.Fs_spec.Fsync)
    done
  in
  run_group "journal"
    [
      Test.make ~name:"journaled-fsync-each"
        (staged (fs_cycle Kfs.Journalfs.Journaled ~ops_per_fsync:1));
      Test.make ~name:"journaled-fsync-per5"
        (staged (fs_cycle Kfs.Journalfs.Journaled ~ops_per_fsync:5));
      Test.make ~name:"journaled-fsync-once"
        (staged (fs_cycle Kfs.Journalfs.Journaled ~ops_per_fsync:20));
      Test.make ~name:"journaled-group-fsync-once"
        (staged (fs_cycle ~group_commit:true Kfs.Journalfs.Journaled ~ops_per_fsync:20));
      Test.make ~name:"journaled-group-fsync-per5"
        (staged (fs_cycle ~group_commit:true Kfs.Journalfs.Journaled ~ops_per_fsync:5));
      Test.make ~name:"direct-fsync-each" (staged (fs_cycle Kfs.Journalfs.Direct ~ops_per_fsync:1));
      Test.make ~name:"direct-fsync-once" (staged (fs_cycle Kfs.Journalfs.Direct ~ops_per_fsync:20));
    ]

(* BENCH-RESIL: the fault-injection plumbing must be free when disabled ----- *)

let bench_resilience () =
  let p = Kspec.Fs_spec.path_of_string in
  let data = String.make 256 'r' in
  let cycle mk () =
    let dev = Kblock.Blockdev.create ~nblocks:1024 ~block_size:512 in
    let io, arm = mk dev in
    let fs = Kfs.Journalfs.mkfs_on ?io Kfs.Journalfs.Journaled dev in
    arm ();
    ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Create (p "/f")));
    for _ = 1 to 20 do
      ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Write { file = p "/f"; off = 0; data }))
    done;
    ignore (Kfs.Journalfs.apply fs Kspec.Fs_spec.Fsync)
  in
  let bare _dev = (None, fun () -> ()) in
  let stack ?(faults = false) dev =
    let fp = Ksim.Failpoint.create ~seed:1 () in
    let flaky = Kblock.Flakydev.create ~fp (Kblock.Blockdev.io dev) in
    let io = Kblock.Resilient.io (Kblock.Resilient.create ~max_attempts:6 (Kblock.Flakydev.io flaky)) in
    let arm () =
      if faults then
        Ksim.Failpoint.configure fp "flaky.write-eio" ~enabled:true ~probability:0.1 ()
    in
    (Some io, arm)
  in
  run_group "resilience"
    [
      Test.make ~name:"journalfs-write-bare" (staged (cycle bare));
      Test.make ~name:"journalfs-write-stack-disabled" (staged (cycle (stack ~faults:false)));
      Test.make ~name:"journalfs-write-stack-10pct-faults" (staged (cycle (stack ~faults:true)));
    ]

(* BENCH-SUP: the oops firewall — healthy-path overhead of the supervised
   mount, and the wall cost of a full contained-oops cycle (panic, EINTR
   drain, microreboot).  The recovery latency on the simulated clock is
   deterministic, so it is printed once as a number rather than timed. *)

let bench_supervision () =
  let p = Kspec.Fs_spec.path_of_string in
  let stat = Kspec.Fs_spec.Stat (p "/f") in
  let plain_vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount plain_vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (Kvfs.Vfs.apply plain_vfs (Kspec.Fs_spec.Create (p "/f")));
  let sup_vfs = Kvfs.Vfs.create () in
  (match
     Kvfs.Vfs.mount sup_vfs ~at:[]
       ~remake:(fun () -> Kvfs.Iface.make (module Kfs.Memfs_typed) ())
       (Kvfs.Iface.make (module Kfs.Memfs_typed) ())
   with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (Kvfs.Vfs.apply sup_vfs (Kspec.Fs_spec.Create (p "/f")));
  (* One full contained-oops cycle.  Under the default policy the
     schedule is exact: panic -> EIO, drain -> EINTR, reboot -> op runs
     against the new generation. *)
  let reboot_cycle () =
    let fp = Ksim.Failpoint.create ~seed:1 () in
    let make () = Kvfs.Iface.panicky ~fp (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) in
    let vfs = Kvfs.Vfs.create () in
    (match Kvfs.Vfs.mount vfs ~at:[] ~remake:make (make ()) with
    | Ok () -> ()
    | Error _ -> assert false);
    Ksim.Failpoint.configure fp "module.panic" ~enabled:true ~times:1 ();
    ignore (Kvfs.Vfs.apply vfs stat);
    ignore (Kvfs.Vfs.apply vfs stat);
    ignore (Kvfs.Vfs.apply vfs stat);
    vfs
  in
  (match Kvfs.Vfs.supervisor_at (reboot_cycle ()) (p "/") with
  | Some sup ->
      Fmt.pr "supervision: simulated recovery latency %d ns (oops -> healthy), epoch %d@."
        (Ksim.Supervisor.last_recovery_ns sup) (Ksim.Supervisor.epoch sup)
  | None -> assert false);
  run_group "supervision"
    [
      Test.make ~name:"vfs-stat-unsupervised" (staged (fun () -> Kvfs.Vfs.apply plain_vfs stat));
      Test.make ~name:"vfs-stat-supervised-healthy"
        (staged (fun () -> Kvfs.Vfs.apply sup_vfs stat));
      Test.make ~name:"microreboot-full-cycle" (staged (fun () -> reboot_cycle ()));
    ]

(* The extension VM: interpreted-but-verified vs native hook ---------------- *)

let bench_ebpf () =
  let filter =
    match Kebpf.Attach.attach_filter (Kebpf.Attach.packet_kind_filter ~kind:1 ~min_len:4) with
    | Ok f -> f
    | Error _ -> assert false
  in
  let native packet =
    String.length packet >= 4 && packet.[0] = '\001'
  in
  let packet = "\001payload-bytes" in
  let tracer =
    match Kebpf.Attach.attach_tracer Kebpf.Attach.opcode_tracer with
    | Ok t -> t
    | Error _ -> assert false
  in
  let op = Kspec.Fs_spec.Stat (Kspec.Fs_spec.path_of_string "/a/b") in
  run_group "ebpf"
    [
      Test.make ~name:"vm-packet-filter" (staged (fun () -> Kebpf.Attach.filter_packet filter packet));
      Test.make ~name:"native-packet-filter" (staged (fun () -> native packet));
      Test.make ~name:"vm-op-tracer" (staged (fun () -> Kebpf.Attach.trace_op tracer op));
    ]

(* The virtual-memory stack: fault, COW, fork costs -------------------------- *)

let bench_mm () =
  let page_size = 4096 in
  let fresh_space nframes =
    Kmm.Addr_space.create (Kmm.Phys.create ~nframes ~page_size)
  in
  let fault_16_pages () =
    let space = fresh_space 32 in
    match Kmm.Addr_space.mmap space ~len:(16 * page_size) ~prot:Kmm.Addr_space.prot_rw
            Kmm.Addr_space.Anon with
    | Ok addr -> ignore (Kmm.Addr_space.read space ~addr ~len:(16 * page_size))
    | Error _ -> assert false
  in
  let warm = fresh_space 32 in
  let warm_addr =
    match Kmm.Addr_space.mmap warm ~len:(4 * page_size) ~prot:Kmm.Addr_space.prot_rw
            Kmm.Addr_space.Anon with
    | Ok a -> a
    | Error _ -> assert false
  in
  ignore (Kmm.Addr_space.write warm ~addr:warm_addr (String.make 64 'w'));
  let fork_and_cow () =
    let space = fresh_space 64 in
    (match Kmm.Addr_space.mmap space ~len:(8 * page_size) ~prot:Kmm.Addr_space.prot_rw
             Kmm.Addr_space.Anon with
    | Ok addr ->
        ignore (Kmm.Addr_space.write space ~addr (String.make (8 * page_size) 'p'));
        let child = Kmm.Addr_space.fork space in
        ignore (Kmm.Addr_space.write child ~addr "c");
        Kmm.Addr_space.destroy child;
        Kmm.Addr_space.destroy space
    | Error _ -> assert false)
  in
  run_group "mm"
    [
      Test.make ~name:"demand-fault-16-pages" (staged fault_16_pages);
      Test.make ~name:"resident-read-64b"
        (staged (fun () -> Kmm.Addr_space.read warm ~addr:warm_addr ~len:64));
      Test.make ~name:"fork+cow-8-pages" (staged fork_and_cow);
    ]

(* Ablations: each checker's cost, on vs off -------------------------------- *)

let bench_ablation () =
  let trace = Kfs.Workload.generate ~seed:6 Kfs.Workload.Mixed ~ops:100 in
  let raw_impl () =
    let t = Kfs.Memfs_verified.Impl.init () in
    List.iter (fun op -> ignore (Kfs.Memfs_verified.Impl.step t op)) trace
  in
  let monitored () =
    let fs = Kfs.Memfs_verified.mkfs () in
    List.iter (fun op -> ignore (Kfs.Memfs_verified.apply fs op)) trace
  in
  let bh_cycle ~check_states () =
    let dev = Kblock.Blockdev.create ~nblocks:64 ~block_size:256 in
    let cache = Kblock.Buffer_head.create ~check_states dev in
    for blkno = 8 to 27 do
      let bh = Kblock.Buffer_head.getblk cache blkno in
      Kblock.Buffer_head.set_data cache bh (Bytes.make 256 'b');
      ignore (Kblock.Buffer_head.submit_write cache bh);
      Kblock.Buffer_head.brelse bh
    done;
    Kblock.Blockdev.flush dev
  in
  let ck = Ownership.Checker.create ~strict:true () in
  let cap = Ownership.Checker.alloc ck ~holder:"bench" ~size:4096 in
  let bare = Bytes.create 4096 in
  let src = Bytes.make 64 'x' in
  let validation () =
    ignore
      (Safeos_core.Roadmap.validate ~ops:50 (fun () ->
           Kvfs.Iface.make (module Kfs.Memfs_typed) ()))
  in
  run_group "ablation"
    [
      Test.make ~name:"fs-raw-impl-100ops" (staged raw_impl);
      Test.make ~name:"fs-refinement-monitored-100ops" (staged monitored);
      Test.make ~name:"bufferhead-checked-20blocks" (staged (bh_cycle ~check_states:true));
      Test.make ~name:"bufferhead-unchecked-20blocks" (staged (bh_cycle ~check_states:false));
      Test.make ~name:"ownership-checked-write-64b"
        (staged (fun () -> Ownership.Checker.write ck cap ~off:0 src));
      Test.make ~name:"raw-bytes-write-64b" (staged (fun () -> Bytes.blit src 0 bare 0 64));
      Test.make ~name:"migration-validation-50ops" (staged validation);
    ]

(* BENCH-LOAD: the multi-tenant load harness on a small population; it
   must stay cheap enough to live inside CI. *)

let bench_kload () =
  let small =
    { Kload.Spec.default with Kload.Spec.tenants = 60; ops_per_tenant = 6 }
  in
  run_group "kload"
    [
      Test.make ~name:"360ops-60tenants-no-storm"
        (staged (fun () -> Kload.Harness.run ~spec:small ~seed:11 ()));
      Test.make ~name:"360ops-60tenants-panic-wave"
        (staged (fun () ->
             Kload.Harness.run ~spec:small ~storm:Kload.Harness.Panic_wave ~seed:11 ()));
    ]

(* BENCH-LINT: the static analyses gate every CI run, so their cost is
   part of the developer loop; keep the whole-tree pass visibly cheap. ---- *)

let bench_lint () =
  let root =
    match Klint.find_root () with
    | Some r -> r
    | None -> failwith "bench: cannot locate dune-project root"
  in
  (* each whole-tree entry parses the tree, then runs its pass *)
  let parsed () =
    let _, parsed, _ = Klint.Kparse.tree ~root in
    parsed
  in
  let ktcb () =
    let parsed = parsed () in
    let kown = Klint.Kown.analyze ~root parsed in
    Klint.Ktcb.analyze ~root parsed ~summaries:kown.Klint.Kown.summaries
  in
  let kdur () = Klint.Kdur.analyze ~root (parsed ()) in
  run_group "lint"
    [
      Test.make ~name:"kracer-whole-tree"
        (staged (fun () -> ignore (Klint.Kracer.analyze ~root (parsed ()))));
      Test.make ~name:"kown-whole-tree"
        (staged (fun () -> ignore (Klint.Kown.analyze ~root (parsed ()))));
      Test.make ~name:"ktcb-whole-tree" (staged (fun () -> ignore (ktcb ())));
      Test.make ~name:"kdur-whole-tree" (staged (fun () -> ignore (kdur ())));
      Test.make ~name:"full-lint+kracer-tree"
        (staged (fun () -> ignore (Klint.Engine.lint_tree ~root)));
    ]

(* BENCH-REFINE: the krefine enumerator — bare journalfs, the lockstep
   pass the CI refine stage pays per op, and crash enumeration, over one
   kload-recorded trace. *)

let bench_refine () =
  let trace = Kharness.recorded_trace ~target_ops:400 ~seed:11 () in
  let lockstep_only =
    { Kspec.Krefine.default_config with Kspec.Krefine.crash_every = 0 }
  in
  let crashing =
    { Kspec.Krefine.default_config with Kspec.Krefine.images_per_op = 2; crash_every = 8 }
  in
  (* The un-checked baseline the lockstep claim compares against: the
     same trace applied to journalfs-on-blockdev with no spec, no
     interp, no invariant. *)
  let geometry =
    { Kfs.Journalfs.nblocks = 4096; block_size = 512; jblocks = 96; ninodes = 128 }
  in
  let bare_run () =
    let dev =
      Kblock.Blockdev.create ~nblocks:geometry.Kfs.Journalfs.nblocks
        ~block_size:geometry.Kfs.Journalfs.block_size
    in
    let fs = Kfs.Journalfs.mkfs_on ~geometry Kfs.Journalfs.Journaled dev in
    List.iter (fun op -> ignore (Kfs.Journalfs.apply fs op)) trace
  in
  run_group "refine"
    [
      Test.make ~name:"journalfs-bare-400ops" (staged bare_run);
      Test.make ~name:"journalfs-lockstep-400ops"
        (staged (fun () ->
             ignore (Kharness.run ~config:lockstep_only Kharness.journalfs trace)));
      Test.make ~name:"journalfs-crash-enum-400ops"
        (staged (fun () -> ignore (Kharness.run ~config:crashing Kharness.journalfs trace)));
      Test.make ~name:"cowfs-lockstep-400ops"
        (staged (fun () -> ignore (Kharness.run ~config:lockstep_only Kharness.cowfs trace)));
    ]

(* Shape checks: turn the measured rows into the paper's qualitative
   claims, so bench output is self-judging. ------------------------------- *)

let find rows needle = List.assoc_opt needle rows |> Option.value ~default:nan

let shape_summary ~modularity ~typesafety ~ownership ~roadmap ~journal ~resilience ~supervision
    ~ablation ~lint ~refine =
  Fmt.pr "@.%s@.shape checks (paper claim -> measured):@." (String.make 64 '=');
  let ratio a b = if Float.is_nan a || Float.is_nan b || b = 0. then nan else a /. b in
  let claim name ok detail = Fmt.pr "  [%s] %-52s %s@." (if ok then "ok" else "??") name detail in
  let r1 =
    ratio (find modularity "modularity/modular-interface") (find modularity "modularity/direct-call")
  in
  claim "modular dispatch within ~3x of a direct call" (r1 < 3.0 || Float.is_nan r1)
    (Fmt.str "%.2fx" r1);
  let r2 =
    ratio (find typesafety "typesafety/amp-typed-receive")
      (find typesafety "typesafety/amp-unsafe-receive")
  in
  claim "typed packet dispatch ~ void* dispatch" (r2 < 2.0 || Float.is_nan r2) (Fmt.str "%.2fx" r2);
  let small =
    ratio (find ownership "ownership/message-copy-64b") (find ownership "ownership/share-shared-64b")
  in
  let large =
    ratio
      (find ownership "ownership/message-copy-65536b")
      (find ownership "ownership/share-shared-65536b")
  in
  claim "copy cost grows with payload; sharing stays flat" (large > small || Float.is_nan large)
    (Fmt.str "copy/share: %.1fx at 64B -> %.1fx at 64KiB" small large);
  let r4 =
    ratio (find roadmap "roadmap/stage2-typed-200ops") (find roadmap "roadmap/stage0-unsafe-200ops")
  in
  let r5 =
    ratio (find roadmap "roadmap/stage4-verified-200ops") (find roadmap "roadmap/stage2-typed-200ops")
  in
  claim "type safety is not slower than the unsafe idioms" (r4 < 1.5 || Float.is_nan r4)
    (Fmt.str "typed/unsafe %.2fx" r4);
  claim "verification monitor costs a bounded factor" (r5 < 30.0 || Float.is_nan r5)
    (Fmt.str "verified/typed %.2fx" r5);
  let rj = ratio (find journal "journal/journaled-fsync-each") (find journal "journal/direct-fsync-each") in
  let rb =
    ratio (find journal "journal/journaled-fsync-each")
      (find journal "journal/journaled-group-fsync-once")
  in
  claim "journaling costs a bounded write amplification" (rj < 8.0 || Float.is_nan rj)
    (Fmt.str "journaled/direct %.2fx" rj);
  claim "group commit amortizes the journal" (rb > 1.2 || Float.is_nan rb)
    (Fmt.str "per-op-commit/group-commit %.2fx" rb);
  let rr =
    ratio
      (find resilience "resilience/journalfs-write-stack-disabled")
      (find resilience "resilience/journalfs-write-bare")
  in
  claim "disabled failpoints cost ~nothing on the write path" (rr < 1.5 || Float.is_nan rr)
    (Fmt.str "stack-disabled/bare %.2fx" rr);
  let rs =
    ratio
      (find supervision "supervision/vfs-stat-supervised-healthy")
      (find supervision "supervision/vfs-stat-unsupervised")
  in
  claim "oops firewall is cheap on the healthy path" (rs < 3.0 || Float.is_nan rs)
    (Fmt.str "supervised/unsupervised %.2fx" rs);
  let ra =
    ratio (find ablation "ablation/bufferhead-checked-20blocks")
      (find ablation "ablation/bufferhead-unchecked-20blocks")
  in
  claim "buffer_head validity checks are cheap" (ra < 2.0 || Float.is_nan ra) (Fmt.str "%.2fx" ra);
  let rl = ratio (find lint "lint/kown-whole-tree") (find lint "lint/kracer-whole-tree") in
  claim "ownership lint costs the same order as the race lint" (rl < 5.0 || Float.is_nan rl)
    (Fmt.str "kown/kracer %.2fx" rl);
  let rt = ratio (find lint "lint/ktcb-whole-tree") (find lint "lint/kracer-whole-tree") in
  claim "frame-confinement lint costs the same order as the race lint"
    (rt < 5.0 || Float.is_nan rt)
    (Fmt.str "ktcb/kracer %.2fx" rt);
  let rd = ratio (find lint "lint/kdur-whole-tree") (find lint "lint/kracer-whole-tree") in
  claim "barrier-discipline lint costs the same order as the race lint"
    (rd < 5.0 || Float.is_nan rd)
    (Fmt.str "kdur/kracer %.2fx" rd);
  let rf =
    ratio
      (find refine "refine/journalfs-lockstep-400ops")
      (find refine "refine/journalfs-bare-400ops")
  in
  claim "lockstep refinement costs a bounded factor over bare execution"
    (rf < 50.0 || Float.is_nan rf)
    (Fmt.str "lockstep/bare %.2fx" rf);
  (* crash enumeration is reported, not claimed flat: every crash point
     pays a full remount + interp, so its cost scales with images, not
     with the lockstep pass *)
  let rc =
    ratio
      (find refine "refine/journalfs-crash-enum-400ops")
      (find refine "refine/journalfs-lockstep-400ops")
  in
  Fmt.pr "  [--] %-52s %s@." "crash enumeration (remount+interp per image, info only)"
    (Fmt.str "crash-enum/lockstep %.1fx" rc)

(* main ----------------------------------------------------------------------- *)

let boot_registry () =
  let r = Safeos_core.Registry.create () in
  ignore
    (Safeos_core.Registry.register r ~name:"memfs" ~kind:Safeos_core.Registry.File_system
       ~level:Safeos_core.Level.Modular ~iface:Safeos_core.Interface.fs_interface ~loc:430
       ~description:"in-memory FS, C idioms behind a modular interface" ());
  ignore
    (Safeos_core.Registry.register r ~name:"journalfs" ~kind:Safeos_core.Registry.File_system
       ~level:Safeos_core.Level.Type_safe ~iface:Safeos_core.Interface.fs_interface ~loc:620
       ~description:"journaled block FS" ());
  ignore
    (Safeos_core.Registry.register r ~name:"memfs_verified"
       ~kind:Safeos_core.Registry.File_system ~level:Safeos_core.Level.Verified
       ~iface:Safeos_core.Interface.fs_interface ~loc:230 ~description:"refinement-checked FS" ());
  r

let () =
  Fmt.pr "================ paper artifacts (tables & figures) ================@.";
  Kcve.Figures.all std (boot_registry ());
  Format.pp_print_flush std ();
  Fmt.pr "@.================ timing benchmarks ================@.";
  let modularity = bench_modularity () in
  let typesafety = bench_typesafety () in
  let ownership = bench_ownership () in
  let roadmap = bench_roadmap () in
  let journal = bench_journal () in
  let resilience = bench_resilience () in
  let supervision = bench_supervision () in
  let _ebpf = bench_ebpf () in
  let _mm = bench_mm () in
  let _kload = bench_kload () in
  let ablation = bench_ablation () in
  let lint = bench_lint () in
  let refine = bench_refine () in
  shape_summary ~modularity ~typesafety ~ownership ~roadmap ~journal ~resilience ~supervision
    ~ablation ~lint ~refine;
  Fmt.pr "@.done.@."
