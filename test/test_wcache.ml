(* The kwcache rig: unit semantics of the volatile write-back cache
   (ack-into-dirty-set, flush as a full barrier, crash-surface
   enumeration with reorderings, the ALICE-style barrier-discipline
   audit, the lying-flush / writeback-reorder failpoints), the satellite
   regressions (Flakydev torn-write vs a refusing base, Resilient
   flush-path retry parity and the journalfs read-only flip), and the
   seeded cache-loss torture CI runs as a tier-1 smoke stage under
   KSIM_WCACHE_SEEDS. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let bytes = Alcotest.bytes
let string = Alcotest.string

(* Base seeds, plus any extras from the environment: CI runs the torture
   again under KSIM_WCACHE_SEEDS="5,17" style hooks, mirroring
   KSIM_TORTURE_SEEDS. *)
let seeds =
  let base = [ 3; 41 ] in
  match Sys.getenv_opt "KSIM_WCACHE_SEEDS" with
  | None | Some "" -> base
  | Some extra ->
      base @ (String.split_on_char ',' extra |> List.filter_map int_of_string_opt)

let block_size = 64
let nblocks = 64
let blk c = Bytes.make block_size c
let str c = String.make block_size c

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" what (Ksim.Errno.to_string e)

let mk_dev () = Kblock.Blockdev.create ~nblocks ~block_size

(* -- write-back semantics --------------------------------------------- *)

let test_ack_is_volatile () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
  ok "write" (Kblock.Wcache.write wc 0 (blk 'a'));
  check int "dirty" 1 (Kblock.Wcache.dirty_blocks wc);
  check int "unflushed" 1 (Kblock.Wcache.unflushed_writes wc);
  check int "no base write yet" 0 (Kblock.Blockdev.writes dev);
  check bytes "read hits cache" (blk 'a') (ok "read" (Kblock.Wcache.read wc 0));
  ok "flush" (Kblock.Wcache.flush wc);
  check int "dirty drained" 0 (Kblock.Wcache.dirty_blocks wc);
  check int "unflushed drained" 0 (Kblock.Wcache.unflushed_writes wc);
  check int "base write landed" 1 (Kblock.Blockdev.writes dev);
  check string "durable" (str 'a') (ok "read" (Kblock.Blockdev.read dev 0))

let test_capacity_eviction () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create ~capacity:2 (Kblock.Blockdev.io dev) in
  ok "w0" (Kblock.Wcache.write wc 0 (blk 'a'));
  ok "w1" (Kblock.Wcache.write wc 1 (blk 'b'));
  ok "w2" (Kblock.Wcache.write wc 2 (blk 'c'));
  check int "one writeback" 1 (Kblock.Wcache.writebacks wc);
  check int "dirty stays bounded" 2 (Kblock.Wcache.dirty_blocks wc);
  (* FIFO victim: block 0 was destaged, but it is still volatile — no
     flush has closed the epoch. *)
  check int "epoch keeps all three" 3 (Kblock.Wcache.unflushed_writes wc);
  check bytes "evicted readable" (blk 'a') (ok "read" (Kblock.Wcache.read wc 0))

let test_crash_drops_unflushed () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
  ok "w" (Kblock.Wcache.write wc 0 (blk 'a'));
  ok "flush" (Kblock.Wcache.flush wc);
  ok "w2" (Kblock.Wcache.write wc 0 (blk 'b'));
  Kblock.Wcache.crash wc;
  check int "nothing dirty" 0 (Kblock.Wcache.dirty_blocks wc);
  check int "nothing unflushed" 0 (Kblock.Wcache.unflushed_writes wc);
  check bytes "flushed content survives" (blk 'a') (ok "read" (Kblock.Wcache.read wc 0))

(* The cache is the one volatile layer: a crash keeps on the media what
   writeback already handed to the device, and loses only the dirty
   set. *)
let test_crash_keeps_written_back () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create ~capacity:1 (Kblock.Blockdev.io dev) in
  ok "w0" (Kblock.Wcache.write wc 0 (blk 'a'));
  ok "w1" (Kblock.Wcache.write wc 1 (blk 'b'));
  ok "w2" (Kblock.Wcache.write wc 2 (blk 'c'));
  check int "two written back" 2 (Kblock.Wcache.writebacks wc);
  check int "one still dirty" 1 (Kblock.Wcache.dirty_blocks wc);
  Kblock.Wcache.crash wc;
  let media = Kblock.Blockdev.of_image ~block_size (Kblock.Blockdev.image dev) in
  let on_media b = ok "read" (Kblock.Blockdev.read media b) in
  check string "written back, kept" (str 'a') (on_media 0);
  check string "written back, kept" (str 'b') (on_media 1);
  check string "dirty, lost" (str '\000') (on_media 2)

(* -- crash-surface enumeration ---------------------------------------- *)

(* Three unflushed writes, one an overwrite: subsets in any order reach
   six distinct images (block 0 ∈ {untouched, 'a', 'c'} × block 1 ∈
   {untouched, 'b'}), and one of them — old content on block 0 {e with}
   the later write surviving elsewhere — only a reordering can produce. *)
let test_residues_exhaustive_with_reorderings () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
  ok "w0a" (Kblock.Wcache.write wc 0 (blk 'a'));
  ok "w1b" (Kblock.Wcache.write wc 1 (blk 'b'));
  ok "w0c" (Kblock.Wcache.write wc 0 (blk 'c'));
  let residues = Kblock.Wcache.crash_residues wc ~limit:64 in
  check int "six distinct images" 6 (List.length residues);
  (* Crash is not a prefix of the write sequence: some surviving image
     skips the oldest write while keeping a later one. *)
  let non_prefix r =
    r <> []
    && not (List.exists (fun (e : Kblock.Wcache.entry) -> e.data.[0] = 'a') r)
  in
  check bool "a non-prefix residue exists" true (List.exists non_prefix residues)

let test_fua_in_every_residue () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
  ok "w0" (Kblock.Wcache.write wc 0 (blk 'a'));
  ok "fua1" (Kblock.Wcache.write_fua wc 1 (blk 'b'));
  check int "fua counted" 1 (Kblock.Wcache.fua_writes wc);
  let residues = Kblock.Wcache.crash_residues wc ~limit:64 in
  check bool "residues exist" true (residues <> []);
  List.iter
    (fun r ->
      check bool "fua write survives every crash" true
        (List.exists (fun (e : Kblock.Wcache.entry) -> e.blkno = 1) r))
    residues

(* The crash window opens at [Wcache.disk]: attach one first. *)
let test_take_durable () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
  let (_ : Kblock.Wcache.disk) = Kblock.Wcache.disk dev wc in
  ok "w0" (Kblock.Wcache.write wc 0 (blk 'a'));
  ok "w1" (Kblock.Wcache.write wc 1 (blk 'b'));
  ok "flush" (Kblock.Wcache.flush wc);
  let durable = Kblock.Wcache.take_durable wc in
  check (Alcotest.list Alcotest.int) "closed epoch, oldest first" [ 0; 1 ]
    (List.map (fun (e : Kblock.Wcache.entry) -> e.blkno) durable);
  check int "window cleared" 0 (List.length (Kblock.Wcache.take_durable wc));
  (* With nothing volatile and nothing retained, the only image is the
     media as-is. *)
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "single empty residue"
    [ [] ]
    (List.map
       (List.map (fun (e : Kblock.Wcache.entry) -> e.blkno))
       (Kblock.Wcache.crash_residues wc ~limit:8))

(* A bare cache retains no closed epoch: nothing it acked outlives the
   flush that made it durable, however long it runs. *)
let test_bare_cache_window_bounded () =
  (* Over a base that keeps nothing, and with a trace of its own, every
     word reachable from the cache is the cache's own. *)
  let sink =
    {
      Kblock.Io.nblocks;
      block_size;
      read = (fun _ -> Ok (Bytes.make block_size '\000'));
      write = (fun _ _ -> Ok ());
      flush = (fun () -> Ok ());
      write_fua = None;
    }
  in
  let wc = Kblock.Wcache.create ~capacity:4 sink in
  let cycle i =
    ok "w" (Kblock.Wcache.write wc (i mod nblocks) (blk (Char.chr (32 + (i mod 90)))));
    ok "flush" (Kblock.Wcache.flush wc)
  in
  for i = 0 to 9 do
    cycle i
  done;
  let words_after_10 = Obj.reachable_words (Obj.repr wc) in
  for i = 10 to 999 do
    cycle i
  done;
  check int "no closed epochs kept" 0 (List.length (Kblock.Wcache.take_durable wc));
  check int "one frame: the open epoch" 1 (List.length (Kblock.Wcache.crash_frames wc));
  let words = Obj.reachable_words (Obj.repr wc) in
  check bool
    (Printf.sprintf "reachable words bounded (%d after 10 cycles, %d after 1000)"
       words_after_10 words)
    true
    (words <= words_after_10 + 16 && words < 1_000)

(* With a disk attached the window holds exactly the epochs since the
   last settle. *)
let test_disk_window_since_settle () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
  ok "before the disk" (Kblock.Wcache.write wc 9 (blk 'z'));
  ok "flush" (Kblock.Wcache.flush wc);
  let d = Kblock.Wcache.disk dev wc in
  let epoch blocks =
    List.iter (fun b -> ok "w" (Kblock.Wcache.write wc b (blk 'e'))) blocks;
    ok "flush" (Kblock.Wcache.flush wc)
  in
  epoch [ 0; 1 ];
  Kblock.Wcache.settle d;
  epoch [ 2 ];
  epoch [ 3; 4 ];
  check int "two closed epochs + the open one" 3
    (List.length (Kblock.Wcache.crash_frames wc));
  check (Alcotest.list Alcotest.int) "epochs since the settle, oldest first" [ 2; 3; 4 ]
    (List.map (fun (e : Kblock.Wcache.entry) -> e.blkno) (Kblock.Wcache.take_durable wc))

(* -- barrier-discipline audit ------------------------------------------ *)

let test_audit_flags_barrier_free_dependency () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
  ok "w0" (Kblock.Wcache.write wc 0 (blk 'a'));
  check bytes "read back unflushed" (blk 'a') (ok "read" (Kblock.Wcache.read wc 0));
  ok "w1" (Kblock.Wcache.write wc 1 (blk 'b'));
  check int "violation" 1 (Kblock.Wcache.ordering_violations wc);
  (match Kblock.Wcache.audit wc with
  | [ v ] ->
      check int "read block" 0 v.Kblock.Wcache.v_blkno;
      check int "dependent write" 1 v.Kblock.Wcache.v_write_blkno
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  (* Same shape with an intervening barrier: clean. *)
  let wc2 = Kblock.Wcache.create (Kblock.Blockdev.io (mk_dev ())) in
  ok "w0" (Kblock.Wcache.write wc2 0 (blk 'a'));
  ignore (Kblock.Wcache.read wc2 0);
  ok "flush" (Kblock.Wcache.flush wc2);
  ok "w1" (Kblock.Wcache.write wc2 1 (blk 'b'));
  check int "flush clears the taint" 0 (Kblock.Wcache.ordering_violations wc2);
  (* Overwriting the block just read is not a dependency on another
     block: an in-place update pattern, not a barrier bug. *)
  let wc3 = Kblock.Wcache.create (Kblock.Blockdev.io (mk_dev ())) in
  ok "w0" (Kblock.Wcache.write wc3 0 (blk 'a'));
  ignore (Kblock.Wcache.read wc3 0);
  ok "w0'" (Kblock.Wcache.write wc3 0 (blk 'b'));
  check int "overwrite exempt" 0 (Kblock.Wcache.ordering_violations wc3)

(* Run [f] with the runtime export on (records kept) or off, whatever
   the environment says, then restore it.  Switching it on keeps the
   file the environment named, if any. *)
let with_export on f =
  let saved = Ksim.Export.target () in
  Ksim.Export.set_target (if on then Some (Option.value saved ~default:Filename.null) else None);
  Fun.protect ~finally:(fun () -> Ksim.Export.set_target saved) f

let wcache_records () = List.filter (fun (kind, _) -> kind = "wcache") (Ksim.Export.records ())

(* Drive the rawlog exhibit over a cache named after its file — the
   dependent-write specimen must trip the runtime audit, and its export
   records must round-trip through klint's reconciliation reader.
   Running this under `dune runtest` with KSIM_EXPORT set (as ci.sh
   does) also seeds the export's wcache records, making the ci
   reconciliation non-vacuous. *)
let test_rawlog_reconciliation_fixture () =
  let dev = mk_dev () in
  let wc = Kblock.Wcache.create ~name:"rawlog_unsafe" (Kblock.Blockdev.io dev) in
  let log = Kfs.Rawlog_unsafe.attach (Kblock.Wcache.io wc) in
  with_export true (fun () ->
      ok "chained" (Kfs.Rawlog_unsafe.append_chained log (blk 'a') (blk 'b'));
      check int "two records" 2 (Kfs.Rawlog_unsafe.records log);
      check bool "the specimen trips the runtime audit" true
        (Kblock.Wcache.ordering_violations wc > 0);
      ok "commit (volatile ack)" (Kfs.Rawlog_unsafe.commit log));
  (match Kblock.Wcache.audit wc with
  | v :: _ ->
      check int "read-back block" 1 v.Kblock.Wcache.v_blkno;
      check int "dependent write block" 2 v.Kblock.Wcache.v_write_blkno
  | [] -> Alcotest.fail "audit empty");
  (* wire format: what the exit hook writes, klint's reader parses *)
  let path = Filename.temp_file "export" ".txt" in
  Ksim.Export.write path
    (List.filter (fun (_, fields) -> List.hd fields = "rawlog_unsafe") (wcache_records ()));
  let kind = Klint.Kdur.wcache_violation in
  (match
     Result.bind (Klint.Kparse.read_export ~kinds:[ kind.Klint.Kparse.kind ] path)
       (Klint.Kparse.decode kind)
   with
  | Ok (v :: _ as vs) ->
      check int "every audit entry exported"
        (List.length (Kblock.Wcache.audit wc))
        (List.length vs);
      check Alcotest.string "cache name on the wire" "rawlog_unsafe" v.Klint.Kdur.cache;
      check int "read-back block on the wire" 1 v.Klint.Kdur.v_blkno;
      check int "dependent write block on the wire" 2 v.Klint.Kdur.v_write_blkno
  | Ok [] -> Alcotest.fail "no violations exported"
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* One cache, one barrier-discipline violation: block 0 read back
   unflushed, then block 1 written. *)
let provoke_violation dev =
  let wc = Kblock.Wcache.create (Kblock.Blockdev.io dev) in
  ok "w0" (Kblock.Wcache.write wc 0 (blk 'a'));
  ignore (Kblock.Wcache.read wc 0);
  ok "w1" (Kblock.Wcache.write wc 1 (blk 'b'));
  check int "violation recorded" 1 (Kblock.Wcache.ordering_violations wc)

(* The export keeps violation records, never caches: a cache pins its
   base device, and a crash sweep builds a cache per image.  Every cache
   here records a violation the export keeps, yet once dropped, every
   device must be collectable. *)
let test_export_pins_nothing () =
  let n = 100 in
  let devs = Weak.create n in
  let before = List.length (wcache_records ()) in
  let provoke i =
    let dev = mk_dev () in
    provoke_violation dev;
    Weak.set devs i (Some dev)
  in
  with_export true (fun () ->
      for i = 0 to n - 1 do
        provoke i
      done);
  check int "the export kept every violation" (before + n) (List.length (wcache_records ()));
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check devs i then incr live
  done;
  check int "no dropped device stays reachable" 0 !live

(* With the export off, a violation is audited on its cache and nowhere
   else: nothing is left for the exit hook to write. *)
let test_export_off_keeps_nothing () =
  let before = wcache_records () in
  with_export false (fun () -> provoke_violation (mk_dev ()));
  check int "no record kept" (List.length before) (List.length (wcache_records ()))

(* -- failpoints --------------------------------------------------------- *)

let test_flush_dropped_failpoint () =
  let dev = mk_dev () in
  let fp = Ksim.Failpoint.create ~seed:7 () in
  let wc = Kblock.Wcache.create ~name:"wc" ~fp (Kblock.Blockdev.io dev) in
  Ksim.Failpoint.configure fp "wc.flush-dropped" ~enabled:true ~probability:1.0 ();
  ok "w" (Kblock.Wcache.write wc 0 (blk 'a'));
  ok "lying flush" (Kblock.Wcache.flush wc);
  check int "flush-drop counted" 1 (Kblock.Wcache.flush_drops wc);
  check int "still volatile" 1 (Kblock.Wcache.unflushed_writes wc);
  check int "nothing landed" 0 (Kblock.Blockdev.writes dev);
  Ksim.Failpoint.configure fp "wc.flush-dropped" ~enabled:false ();
  ok "honest flush" (Kblock.Wcache.flush wc);
  check int "drained" 0 (Kblock.Wcache.unflushed_writes wc);
  check string "durable now" (str 'a') (ok "read" (Kblock.Blockdev.read dev 0))

let test_writeback_reorder_failpoint () =
  let dev = mk_dev () in
  let fp = Ksim.Failpoint.create ~seed:7 () in
  let wc = Kblock.Wcache.create ~name:"wc" ~capacity:2 ~fp ~seed:5 (Kblock.Blockdev.io dev) in
  Ksim.Failpoint.configure fp "wc.writeback-reorder" ~enabled:true ~probability:1.0 ();
  for i = 0 to 7 do
    ok "w" (Kblock.Wcache.write wc i (blk (Char.chr (Char.code 'a' + i))))
  done;
  check int "evictions happened" 6 (Kblock.Wcache.writebacks wc);
  check bool "some destages left FIFO order" true
    (Kblock.Wcache.reordered_writebacks wc > 0)

(* -- satellite: Flakydev torn-write vs a refusing base ------------------ *)

let refusing_io =
  {
    Kblock.Io.nblocks;
    block_size;
    read = (fun _ -> Ok (Bytes.make block_size '\000'));
    write = (fun _ _ -> Error Ksim.Errno.EIO);
    flush = (fun () -> Ok ());
    write_fua = None;
  }

let test_torn_skipped_on_refusing_base () =
  let fp = Ksim.Failpoint.create ~seed:3 () in
  let flaky = Kblock.Flakydev.create ~fp refusing_io in
  Ksim.Failpoint.configure fp "flaky.torn-write" ~enabled:true ~probability:1.0 ();
  (match (Kblock.Flakydev.io flaky).Kblock.Io.write 0 (blk 'a') with
  | Error Ksim.Errno.EIO -> ()
  | _ -> Alcotest.fail "torn draw must still error");
  check int "nothing landed => not torn" 0 (Kblock.Flakydev.torn_writes flaky);
  check int "counted separately" 1 (Kblock.Flakydev.torn_skipped flaky);
  check int "still an injected fault" 1 (Kblock.Flakydev.injected flaky);
  (* Same draw over a working base is a real torn write. *)
  let fp2 = Ksim.Failpoint.create ~seed:3 () in
  let flaky2 = Kblock.Flakydev.create ~fp:fp2 (Kblock.Blockdev.io (mk_dev ())) in
  Ksim.Failpoint.configure fp2 "flaky.torn-write" ~enabled:true ~probability:1.0 ();
  (match (Kblock.Flakydev.io flaky2).Kblock.Io.write 0 (blk 'a') with
  | Error Ksim.Errno.EIO -> ()
  | _ -> Alcotest.fail "torn write must error");
  check int "landed => torn" 1 (Kblock.Flakydev.torn_writes flaky2);
  check int "not skipped" 0 (Kblock.Flakydev.torn_skipped flaky2)

let test_torn_skipped_in_nested_down_window () =
  let fp = Ksim.Failpoint.create ~seed:3 () in
  let dev = mk_dev () in
  let inner = Kblock.Flakydev.create ~name:"inner" ~fp (Kblock.Blockdev.io dev) in
  (* One inner op up (the torn branch's old-content read), then down: the
     torn-prefix write itself lands in the down window. *)
  Kblock.Flakydev.set_availability inner ~up:1 ~down:1000;
  let outer = Kblock.Flakydev.create ~name:"outer" ~fp (Kblock.Flakydev.io inner) in
  Ksim.Failpoint.configure fp "outer.torn-write" ~enabled:true ~probability:1.0 ();
  (match (Kblock.Flakydev.io outer).Kblock.Io.write 0 (blk 'a') with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "write through a down window must fail");
  check int "down window refused the tear" 0 (Kblock.Flakydev.torn_writes outer);
  check int "skip recorded" 1 (Kblock.Flakydev.torn_skipped outer);
  check int "base media untouched" 0 (Kblock.Blockdev.writes dev)

(* -- satellite: Resilient flush-path parity ----------------------------- *)

(* An io whose chosen operation fails with a transient EIO the first
   [fails] times it is called, then works. *)
let sometimes_failing ~fails which =
  let dev = mk_dev () in
  let base = Kblock.Blockdev.io dev in
  let left = ref fails in
  let gate f = if !left > 0 then (decr left; Error Ksim.Errno.EIO) else f () in
  {
    base with
    Kblock.Io.write =
      (fun b d -> if which = `Write then gate (fun () -> base.Kblock.Io.write b d)
                  else base.Kblock.Io.write b d);
    flush =
      (fun () -> if which = `Flush then gate base.Kblock.Io.flush
                 else base.Kblock.Io.flush ());
    write_fua = None;
  }

let test_flush_retry_parity () =
  let mk which =
    Kblock.Resilient.create ~max_attempts:4 ~backoff_base:100 ~backoff_cap:10_000
      (sometimes_failing ~fails:2 which)
  in
  let rf = mk `Flush and rw = mk `Write in
  ok "flush recovers" (Kblock.Resilient.flush rf);
  ok "write recovers" (Kblock.Resilient.write rw 0 (blk 'a'));
  check int "same retries" (Kblock.Resilient.retries rw) (Kblock.Resilient.retries rf);
  check int "retried twice" 2 (Kblock.Resilient.retries rf);
  check int "same recovered accounting" (Kblock.Resilient.recovered_ops rw)
    (Kblock.Resilient.recovered_ops rf);
  check int "one recovered op" 1 (Kblock.Resilient.recovered_ops rf);
  check int "same backoff curve" (Kblock.Resilient.simulated_ns rw)
    (Kblock.Resilient.simulated_ns rf);
  (* Budget exhaustion on the flush path is the same permanent verdict. *)
  let rp =
    Kblock.Resilient.create ~max_attempts:3 (sometimes_failing ~fails:max_int `Flush)
  in
  (match Kblock.Resilient.flush rp with
  | Error Ksim.Errno.EIO -> ()
  | _ -> Alcotest.fail "exhausted flush must propagate EIO");
  check int "permanent verdict" 1 (Kblock.Resilient.permanent_failures rp)

let test_permanent_flush_flips_readonly () =
  let dev = mk_dev () in
  let base = Kblock.Blockdev.io dev in
  let fail_flush = ref false in
  let io_stub =
    {
      base with
      Kblock.Io.flush =
        (fun () -> if !fail_flush then Error Ksim.Errno.EIO else base.Kblock.Io.flush ());
      write_fua = None;
    }
  in
  let r = Kblock.Resilient.create ~max_attempts:3 io_stub in
  let geometry =
    { Kfs.Journalfs.nblocks; block_size; jblocks = 16; ninodes = 8 }
  in
  let fs =
    Kfs.Journalfs.mkfs_on ~geometry ~io:(Kblock.Resilient.io r) Kfs.Journalfs.Journaled dev
  in
  let p = Kspec.Fs_spec.path_of_string in
  (match Kfs.Journalfs.apply fs (Kspec.Fs_spec.Create (p "/f")) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup create: %s" (Ksim.Errno.to_string e));
  fail_flush := true;
  (match
     Kfs.Journalfs.apply fs
       (Kspec.Fs_spec.Write { file = p "/f"; off = 0; data = "doomed" })
   with
  | Error Ksim.Errno.EIO -> ()
  | r -> Alcotest.failf "expected EIO, got %a" Kspec.Fs_spec.pp_result r);
  check bool "errors=remount-ro latched" true (Kfs.Journalfs.is_readonly fs);
  check bool "budget exhausted" true (Kblock.Resilient.permanent_failures r > 0);
  fail_flush := false;
  (match
     Kfs.Journalfs.apply fs
       (Kspec.Fs_spec.Write { file = p "/f"; off = 0; data = "late" })
   with
  | Error Ksim.Errno.EROFS -> ()
  | r -> Alcotest.failf "expected EROFS, got %a" Kspec.Fs_spec.pp_result r)

(* -- cache-loss torture ------------------------------------------------- *)

(* ALICE-style gate, hand-rolled (the kharness sweep below re-checks the
   same surface against the full spec): journalfs over the cache with
   writeback reordering forced on, a versioned key file, and at every
   sweep each crash device (a residue over the settled media) is
   mounted — the mount must parse (journal checksums make
   any residue recoverable) and must read the key at or past the last
   acknowledged version.  In Journaled mode every successful Write
   committed through two real barriers, so acked means durable even
   though most of the epoch is still volatile. *)
let torture_geometry =
  { Kfs.Journalfs.nblocks = 512; block_size = 128; jblocks = 48; ninodes = 16 }

let cache_loss_torture seed =
  let g = torture_geometry in
  let dev = Kblock.Blockdev.create ~nblocks:g.nblocks ~block_size:g.block_size in
  let fp = Ksim.Failpoint.create ~seed () in
  let wc = Kblock.Wcache.create ~name:"wc" ~capacity:8 ~fp ~seed (Kblock.Blockdev.io dev) in
  Ksim.Failpoint.configure fp "wc.writeback-reorder" ~enabled:true ~probability:1.0 ();
  let fs = Kfs.Journalfs.mkfs_on ~geometry:g ~io:(Kblock.Wcache.io wc) Kfs.Journalfs.Journaled dev in
  ok "post-mkfs barrier" (Kblock.Wcache.flush wc);
  let disk = Kblock.Wcache.disk dev wc in
  let p = Kspec.Fs_spec.path_of_string in
  let key = "/k" in
  let version = ref 0 and acked = ref 0 and acked_floor = ref 0 in
  let rng = Ksim.Rng.of_int (seed * 7919) in
  let images = ref 0 in
  (* The crash devices span every crash instant since the previous sweep
     (each sweep settles the window), so the durability floor is the
     version acked {e at the window's start} — anything acked mid-window
     may legally be missing from an early-frame image. *)
  let sweep () =
    List.iter
      (fun dev' ->
        incr images;
        let fs' = Kfs.Journalfs.mount ~geometry:g Kfs.Journalfs.Journaled dev' in
        check bool "residue mounts clean" false (Kfs.Journalfs.is_corrupt fs');
        if !acked_floor > 0 then
          match
            Kfs.Journalfs.apply fs' (Kspec.Fs_spec.Read { file = p key; off = 0; len = 9 })
          with
          | Ok (Kspec.Fs_spec.Data s) when String.length s = 9 && s.[0] = 'v' ->
              let v = int_of_string (String.sub s 1 8) in
              if v < !acked_floor then
                Alcotest.failf "seed %d: acked v%d, residue recovered v%d" seed
                  !acked_floor v
          | r ->
              Alcotest.failf "seed %d: acked v%d unreadable after crash: %a" seed
                !acked_floor Kspec.Fs_spec.pp_result r)
      (Kblock.Wcache.crash_devices disk ~limit:8);
    acked_floor := !acked
  in
  for i = 1 to 120 do
    (match Ksim.Rng.int rng 5 with
    | 0 | 1 | 2 ->
        incr version;
        let data = Printf.sprintf "v%08d:%s" !version (String.make 16 'x') in
        (match Kfs.Journalfs.apply fs (Kspec.Fs_spec.Write { file = p key; off = 0; data }) with
        | Ok _ -> acked := !version
        | Error Ksim.Errno.ENOENT -> (
            match Kfs.Journalfs.apply fs (Kspec.Fs_spec.Create (p key)) with
            | Ok _ | Error _ -> decr version)
        | Error e -> Alcotest.failf "seed %d write: %s" seed (Ksim.Errno.to_string e))
    | 3 ->
        let f = Printf.sprintf "/c%d" (Ksim.Rng.int rng 4) in
        ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Create (p f)))
    | _ -> ignore (Kfs.Journalfs.apply fs Kspec.Fs_spec.Fsync));
    if i mod 10 = 0 then sweep ()
  done;
  ignore (Kfs.Journalfs.apply fs Kspec.Fs_spec.Fsync);
  sweep ();
  check bool "torture enumerated images" true (!images > 20);
  check int "no false barrier alarms" 0 (Kblock.Wcache.ordering_violations wc);
  (* The crash-at-quiescence gate: everything drained, a fresh mount of
     the raw device must read the latest acked version exactly. *)
  ok "final barrier" (Kblock.Wcache.flush wc);
  let fs' = Kfs.Journalfs.mount ~geometry:g Kfs.Journalfs.Journaled dev in
  check bool "final mount clean" false (Kfs.Journalfs.is_corrupt fs');
  match Kfs.Journalfs.apply fs' (Kspec.Fs_spec.Read { file = p key; off = 0; len = 9 }) with
  | Ok (Kspec.Fs_spec.Data s) when String.length s = 9 && s.[0] = 'v' ->
      check int "latest ack durable" !acked (int_of_string (String.sub s 1 8))
  | r -> Alcotest.failf "seed %d: final mount lost /k: %a" seed Kspec.Fs_spec.pp_result r

let test_cache_loss_torture () = List.iter cache_loss_torture seeds

(* The registered harnesses over the same hostile disk, full refinement
   check, crash enumeration at every op. *)
let test_harness_sweep () =
  List.iter
    (fun seed ->
      let trace = Kharness.recorded_trace ~target_ops:150 ~seed () in
      List.iter
        (fun (e : Kharness.entry) ->
          let config =
            { Kspec.Krefine.default_config with seed; images_per_op = 4; crash_every = 1 }
          in
          let cov = Kharness.run ~config e trace in
          if not (Kspec.Krefine.is_clean cov) then
            Alcotest.failf "seed %d: %s diverged:@.%a" seed e.Kharness.hname
              Kspec.Krefine.pp_coverage cov)
        (Kharness.all ()))
    seeds

let () =
  Alcotest.run "wcache"
    [
      ( "semantics",
        [
          Alcotest.test_case "ack is volatile until flush" `Quick test_ack_is_volatile;
          Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
          Alcotest.test_case "crash drops unflushed" `Quick test_crash_drops_unflushed;
          Alcotest.test_case "crash keeps written-back blocks" `Quick
            test_crash_keeps_written_back;
        ] );
      ( "residues",
        [
          Alcotest.test_case "exhaustive with reorderings" `Quick
            test_residues_exhaustive_with_reorderings;
          Alcotest.test_case "fua survives every crash" `Quick test_fua_in_every_residue;
          Alcotest.test_case "take_durable closes the window" `Quick test_take_durable;
          Alcotest.test_case "bare cache keeps no closed epochs" `Quick
            test_bare_cache_window_bounded;
          Alcotest.test_case "disk window since settle" `Quick test_disk_window_since_settle;
        ] );
      ( "audit",
        [
          Alcotest.test_case "rawlog exhibit: audit + export round-trip" `Quick
            test_rawlog_reconciliation_fixture;
          Alcotest.test_case "barrier-free dependency flagged" `Quick
            test_audit_flags_barrier_free_dependency;
          Alcotest.test_case "export pins no cache" `Quick test_export_pins_nothing;
          Alcotest.test_case "export off keeps nothing" `Quick test_export_off_keeps_nothing;
        ] );
      ( "failpoints",
        [
          Alcotest.test_case "flush-dropped" `Quick test_flush_dropped_failpoint;
          Alcotest.test_case "writeback-reorder" `Quick test_writeback_reorder_failpoint;
        ] );
      ( "flaky",
        [
          Alcotest.test_case "torn skipped on refusing base" `Quick
            test_torn_skipped_on_refusing_base;
          Alcotest.test_case "torn skipped in nested down window" `Quick
            test_torn_skipped_in_nested_down_window;
        ] );
      ( "resilient",
        [
          Alcotest.test_case "flush retry parity" `Quick test_flush_retry_parity;
          Alcotest.test_case "permanent flush flips readonly" `Quick
            test_permanent_flush_flips_readonly;
        ] );
      ( "torture",
        [
          Alcotest.test_case "cache-loss torture" `Quick test_cache_loss_torture;
          Alcotest.test_case "harness sweep" `Quick test_harness_sweep;
        ] );
    ]
