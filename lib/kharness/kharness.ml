(* The refinement-harness registry (see kharness.mli).  Registration is
   the [harness ~name ~subsystem] call below — the literal shape klint's
   R15 pass scans for, so a Verified registry claim with no registered
   harness is a lint violation, not a convention. *)

module Krefine = Kspec.Krefine
module Fs = Kspec.Fs_spec

type packed = Packed : (module Krefine.MACHINE with type vars = 'a) -> packed

type entry = { hname : string; subsystem : string; machine : packed }

let registered : entry list ref = ref []

let harness ~name ~subsystem machine =
  let e = { hname = name; subsystem; machine } in
  registered := !registered @ [ e ];
  e

let all () = !registered
let find name = List.find_opt (fun e -> e.hname = name) !registered
let subsystems_covered () = List.sort_uniq String.compare (List.map (fun e -> e.subsystem) !registered)

let run ?config (e : entry) trace =
  let (Packed (module M)) = e.machine in
  Krefine.run ?config (module M) trace

(* The hostile disk ------------------------------------------------------ *)

(* The kload device geometry: the recorded key space must fit
   payload-ceiling files with headroom, so [ENOSPC] can only mean a real
   refinement bug, never an under-provisioned harness. *)
let geometry =
  { Kfs.Journalfs.nblocks = 4096; block_size = 512; jblocks = 96; ninodes = 128 }

(* Small enough that multi-block journal transactions overflow it and
   force mid-epoch writebacks — the cache must not get to hide behind
   "everything still fits". *)
let wcache_capacity = 16

(* Every disk-backed harness runs its FS over a [Kblock.Wcache] on the raw
   device: acked writes are volatile until the FS flushes, and crash
   images are wcache residues — subsets *and reorderings* of the writes
   since the last completed barrier, patched over an immutable image of
   the media as of the last settled epoch ([Kblock.Wcache.disk]).

   Settling discipline: [Kblock.Wcache.crash_devices] settles after each
   enumeration, keeping the retained window proportional to the crash
   cadence.  [settle] must also run *before* an [Fsync] is applied: the
   checker's frontier resets at [Fsync], so crash instants from before
   the fsync stop being representable at later crash points; the fsync's
   own barrier epochs stay in the window — the checker's Fsync window
   judges them — and are exactly the images that convict a
   missing-barrier journal. *)
type disk = {
  dev : Kblock.Blockdev.t;
  wc : Kblock.Wcache.t;
  crash : Kblock.Wcache.disk;
}

let fresh_dev () =
  Kblock.Blockdev.create ~nblocks:geometry.Kfs.Journalfs.nblocks
    ~block_size:geometry.Kfs.Journalfs.block_size

let wcache_over dev =
  Kblock.Wcache.create ~name:"wcache" ~capacity:wcache_capacity ~seed:1 (Kblock.Blockdev.io dev)

(* [wc] sits on [dev] and its last write was a barrier (mkfs ends with
   one; a crash device starts cold). *)
let disk_of dev wc = { dev; wc; crash = Kblock.Wcache.disk dev wc }

(* Post-crash disks, each behind a fresh cold cache. *)
let crash_disks d ~limit =
  Kblock.Wcache.crash_devices d.crash ~limit
  |> List.map (fun dev -> disk_of dev (wcache_over dev))

let settle_before_fsync d = function Fs.Fsync -> Kblock.Wcache.settle d.crash | _ -> ()

(* Journalfs over the hostile disk ---------------------------------------- *)

(* The machine is the FS and its disk (betrfs's IOSystem): a crash image
   is a post-crash disk brought up by a journal-replay mount. *)
let journalfs_machine ?(group_commit = false) ?(barriers = true) mode =
  let module M = struct
    type vars = Kfs.Journalfs.t * disk

    let name =
      (match mode with Kfs.Journalfs.Journaled -> "journalfs" | Direct -> "directfs")
      ^ (if group_commit then "+group-commit" else "")
      ^ if barriers then "" else ".missing-barrier"

    let init () =
      let dev = fresh_dev () in
      let wc = wcache_over dev in
      let io = Kblock.Wcache.io wc in
      let fs = Kfs.Journalfs.mkfs_on ~geometry ~group_commit ~barriers ~io mode dev in
      (fs, disk_of dev wc)

    let step ((fs, d) as v) op =
      settle_before_fsync d op;
      (v, Kfs.Journalfs.apply fs op)

    let interp (fs, _) = Kfs.Journalfs.interpret fs

    let inv (fs, d) =
      (not (Kfs.Journalfs.is_corrupt fs))
      && (not (Kfs.Journalfs.is_readonly fs))
      (* barrier discipline is part of the invariant: the FS must never
         derive new writes from data it has not flushed *)
      && Kblock.Wcache.ordering_violations d.wc = 0

    let crash_images (_, d) ~limit =
      List.map
        (fun d ->
          let io = Kblock.Wcache.io d.wc in
          (Kfs.Journalfs.mount ~geometry ~group_commit ~barriers ~io mode d.dev, d))
        (crash_disks d ~limit)
  end in
  Packed (module M)

let crash_check ~images (Packed (module M)) trace =
  let config =
    {
      Krefine.default_config with
      images_per_op = images;
      frontier_limit = max_int;
      shrink = false;
      max_divergences = max_int;
    }
  in
  Krefine.run ~config (module M) trace

(* Cowfs ----------------------------------------------------------------- *)

module Cowfs_machine = struct
  type vars = Kfs.Cowfs.fs

  let name = "cowfs"
  let init () = Kfs.Cowfs.mkfs ()
  let step v op = (v, Kfs.Cowfs.apply v op)
  let interp = Kfs.Cowfs.interpret
  let inv _ = true

  (* The tree is a persistent value: there is no volatile/durable split
     to crash across — no block device, so no write-back cache either —
     and crash checking is vacuous by construction. *)
  let crash_images _ ~limit:_ = []
end

(* Supervised microreboot ------------------------------------------------ *)

let panic_cadence = 64

(* The kload supervisor policy: a budget that cannot exhaust (a [Failed]
   mount is a degraded-mode study, not a refinement subject) and the
   default backoff curve, so recovery completes within a few retries. *)
let sup_policy =
  {
    Ksim.Supervisor.restart_budget = 1_000_000;
    backoff_base = 200;
    backoff_cap = 5_000;
    op_cost = 100;
  }

module Microreboot_base = struct
  type vars = {
    vfs : Kvfs.Vfs.t;
    disk : disk;
    fp : Ksim.Failpoint.t;
    panic_every : int;
    mutable handle_epoch : int;  (* the epoch our "open handle" was minted at *)
    mutable ops_done : int;
  }

  let name = "journalfs.microreboot"

  (* The supervised root mount over [disk] that a boot and a crash reboot
     both build: module panics injected at "dur.panic", and a restart
     that remounts with journal replay.  The first instance is [fs], or
     such a remount when there is none. *)
  let mount ~sabotage ~panic_every disk fs =
    let io = Kblock.Wcache.io disk.wc in
    let fp = Ksim.Failpoint.create ~seed:1 () in
    let vfs = Kvfs.Vfs.create () in
    let wrap fs =
      Kvfs.Iface.panicky ~site:"dur.panic" ~fp
        (Kvfs.Iface.instance (module Kfs.Journalfs.Journaled_fs) fs)
    in
    let remake () =
      if sabotage then begin
        (* The seeded replay-skip fault: zero the journal record blocks
           (the header survives), so the recovery scan finds only torn
           records and silently replays nothing.  Committed-but-
           unfsynced operations vanish — the lockstep check must see the
           state regress across the microreboot. *)
        let zero = Bytes.make geometry.Kfs.Journalfs.block_size '\000' in
        for b = 1 to geometry.Kfs.Journalfs.jblocks - 1 do
          let (_ : unit Ksim.Errno.r) = Kblock.Blockdev.write disk.dev b zero in
          ()
        done;
        let (_ : unit Ksim.Errno.r) = io.Kblock.Io.flush () in
        ()
      end;
      (* A microreboot restarts the module, not the disk: the write cache
         survives.  Mount parses via direct device reads, so drain the
         cache first — equivalent to reading through it. *)
      let (_ : unit Ksim.Errno.r) = io.Kblock.Io.flush () in
      wrap (Kfs.Journalfs.mount ~geometry ~io Kfs.Journalfs.Journaled disk.dev)
    in
    let first = match fs with Some fs -> wrap fs | None -> remake () in
    (match Kvfs.Vfs.mount vfs ~at:[] ~remake ~policy:sup_policy first with
    | Ok () -> ()
    | Error _ -> invalid_arg "Kharness.Microreboot: root mount failed");
    { vfs; disk; fp; panic_every; handle_epoch = Kvfs.Vfs.epoch_at vfs []; ops_done = 0 }

  let make ~sabotage ~panic_every () =
    let dev = fresh_dev () in
    let wc = wcache_over dev in
    let fs = Kfs.Journalfs.mkfs_on ~geometry ~io:(Kblock.Wcache.io wc) Kfs.Journalfs.Journaled dev in
    mount ~sabotage ~panic_every (disk_of dev wc) (Some fs)

  (* The tenant retry discipline from the load harness: EIO is a
     contained oops (there is no other EIO source here — the device is
     fault-free), EINTR is the quiesce window (each retry advances the
     supervisor clock towards its backoff deadline), ESTALE means our
     handle's generation died with the old instance, so re-mint it at
     the current epoch and retry.  The op itself is applied at most once:
     the panic fires before the module delegates.

     The retry budget must outlast the worst quiesce window: backoff is
     capped at [backoff_cap] ns and the clock advances [op_cost] ns per
     call, so [backoff_cap / op_cost] (= 50) retries always reach the
     deadline; the rest is slack for the ESTALE re-mint round-trip. *)
  let retry_budget = (sup_policy.Ksim.Supervisor.backoff_cap / sup_policy.Ksim.Supervisor.op_cost) + 10

  let step v op =
    settle_before_fsync v.disk op;
    v.ops_done <- v.ops_done + 1;
    if v.ops_done mod v.panic_every = 0 then
      Ksim.Failpoint.configure v.fp "dur.panic" ~enabled:true ~probability:1.0 ~interval:1
        ~times:1 ();
    let rec go tries =
      match Kvfs.Vfs.apply_stamped v.vfs ~epoch:v.handle_epoch op with
      | Error Ksim.Errno.ESTALE when tries > 0 ->
          v.handle_epoch <- Kvfs.Vfs.epoch_at v.vfs [];
          go (tries - 1)
      | Error (Ksim.Errno.EINTR | Ksim.Errno.EIO) when tries > 0 -> go (tries - 1)
      | r -> r
    in
    (v, go retry_budget)

  let interp v = Kvfs.Vfs.interpret v.vfs
  let inv v = Kblock.Wcache.ordering_violations v.disk.wc = 0

  (* A device crash strikes the whole stack: enumerate cache-loss residues
     of the hostile disk, then bring each image up the way a reboot
     would — a fresh supervised mount (over a cold cache) whose first act
     is journal replay. *)
  let crash_images v ~limit =
    List.map
      (fun d -> mount ~sabotage:false ~panic_every:max_int d None)
      (crash_disks v.disk ~limit)
end

module Microreboot_machine = struct
  include Microreboot_base

  let init () = make ~sabotage:false ~panic_every:panic_cadence ()
end

let microreboot_sabotaged ?(panic_every = 4) () =
  let module M = struct
    include Microreboot_base

    let name = "journalfs.microreboot.replay-skip"
    let init () = make ~sabotage:true ~panic_every ()
  end in
  Packed (module M)

(* Registrations --------------------------------------------------------- *)

let journalfs =
  harness ~name:"journalfs" ~subsystem:"journalfs" (journalfs_machine Kfs.Journalfs.Journaled)

let cowfs = harness ~name:"cowfs" ~subsystem:"cowfs" (Packed (module Cowfs_machine))

let microreboot =
  harness ~name:"journalfs.microreboot" ~subsystem:"journalfs"
    (Packed (module Microreboot_machine))

let recorded_trace ?target_ops ~seed () = Kload.Trace.record ?target_ops ~seed ()
