(* Tests for the benchmark's own wrappers: a probe must not change what
   it wraps, and every workload must run, and pass its checks, at a tiny
   size. *)

module Fs = Kspec.Fs_spec
module W = Perfbench.Workloads

let tiny_trace = lazy (W.refine_trace ~scale:W.Tiny ~seed:7)

(* Journalfs over Resilient/Flakydev/Wcache/Blockdev with transient write
   faults armed, so retries and error returns cross the probes too.
   Returns every op result and the device bytes after a final flush. *)
let journal_stack ~probed trace =
  let spans = ref [] in
  let probe io =
    if probed then begin
      let s = Perfbench.Probe.span () in
      spans := s :: !spans;
      Perfbench.Probe.io s io
    end
    else io
  in
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:5 () in
  let g = W.geometry in
  let dev =
    Kblock.Blockdev.create ~nblocks:g.Kfs.Journalfs.nblocks ~block_size:g.Kfs.Journalfs.block_size
  in
  let wc = Kblock.Wcache.create ~capacity:8 ~fp ~seed:5 (probe (Kblock.Blockdev.io dev)) in
  let flaky = Kblock.Flakydev.create ~fp (probe (Kblock.Wcache.io wc)) in
  let resilient = Kblock.Resilient.create ~max_attempts:6 (probe (Kblock.Flakydev.io flaky)) in
  let io = probe (Kblock.Resilient.io resilient) in
  let fs = Kfs.Journalfs.mkfs_on ~geometry:g ~io Kfs.Journalfs.Journaled dev in
  Ksim.Failpoint.configure fp "flaky.write-eio" ~enabled:true ~probability:0.1 ();
  let results = List.map (Kfs.Journalfs.apply fs) trace in
  Ksim.Failpoint.disable_all fp;
  let (_ : unit Ksim.Errno.r) = Kblock.Wcache.flush wc in
  Kblock.Blockdev.flush dev;
  (results, Kblock.Blockdev.snapshot_media dev, !spans)

let test_io_probe_transparent () =
  let trace = Lazy.force tiny_trace in
  let bare_results, bare_media, _ = journal_stack ~probed:false trace in
  let results, media, spans = journal_stack ~probed:true trace in
  Alcotest.(check int) "op count" (List.length bare_results) (List.length results);
  List.iteri
    (fun i (a, b) ->
      if not (Fs.equal_result a b) then Alcotest.failf "op %d: result differs under the probe" i)
    (List.combine bare_results results);
  Alcotest.(check bool) "device bytes" true (bare_media = media);
  List.iter
    (fun (s : Perfbench.Probe.span) ->
      Alcotest.(check bool) "probe saw calls" true (s.Perfbench.Probe.calls > 0);
      Alcotest.(check bool) "probe saw writes" true (s.Perfbench.Probe.bytes_written > 0))
    spans

let test_machine_wrapper_fingerprint () =
  let trace = Lazy.force tiny_trace in
  let config = W.refine_config ~seed:7 in
  List.iter
    (fun (e : Kharness.entry) ->
      let bare = Kharness.run ~config e trace in
      let spans = Perfbench.Probe.machine_spans () in
      let timed =
        Kharness.run ~config
          { e with Kharness.machine = Perfbench.Probe.machine spans e.Kharness.machine }
          trace
      in
      Alcotest.(check string)
        (e.Kharness.hname ^ " coverage fingerprint")
        (Kspec.Krefine.coverage_fingerprint bare)
        (Kspec.Krefine.coverage_fingerprint timed);
      Alcotest.(check bool) "steps timed" true (spans.Perfbench.Probe.step.Perfbench.Probe.calls > 0))
    (Kharness.all ())

let test_workload name () =
  let run traced = W.run ~workload:name ~scale:W.Tiny ~seed:7 ~traced ~root:".." in
  let bare = run false and traced = run true in
  List.iter
    (fun (r : W.round) ->
      Alcotest.(check (list string)) "checks pass" [] r.W.failures;
      Alcotest.(check bool) "work measured" true (List.for_all (fun (w, ns) -> w > 0 && ns > 0) r.W.units))
    [ bare; traced ];
  Alcotest.(check string) "traced run reproduces the fingerprint" bare.W.fingerprint
    traced.W.fingerprint;
  Alcotest.(check bool) "traced run reports layers" true (traced.W.traced_ns > 0 && traced.W.layers <> [])

let () =
  Alcotest.run "perfbench"
    [
      ( "probes",
        [
          Alcotest.test_case "io probe keeps results and device bytes" `Quick
            test_io_probe_transparent;
          Alcotest.test_case "machine wrapper keeps coverage fingerprint" `Quick
            test_machine_wrapper_fingerprint;
        ] );
      ( "workloads",
        List.map (fun n -> Alcotest.test_case (n ^ " at tiny size") `Quick (test_workload n)) W.names
      );
    ]
