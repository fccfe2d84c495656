(** The refinement-harness registry: every subsystem whose registry
    entry claims [Verified] must register a {!Kspec.Krefine} machine
    here, by name — klint's R15 ({e unverified-functional-claim}) fails
    any claim with no matching [harness ~name ~subsystem] registration,
    so "verified" can never silently mean "we stopped running the
    checker".

    The machines themselves are the real stacks: journalfs and its disk
    as one machine (betrfs's IOSystem) over a {e hostile} disk — a
    {!Kblock.Wcache} volatile write-back cache on the raw block device,
    so crash images are cache-loss residues (subsets {e and reorderings}
    of the unflushed writes, seeded sampling under the image limit) and
    recovery is a journal-replay mount over a cold cache.  The disk is a
    value: each crash image comes from {!Kblock.Wcache.crash_devices},
    the media as of the last settled barrier epoch patched with one
    residue, so it shares every block the residue did not write and costs
    block pointers, not a device copy; cowfs over its persistent tree;
    and the supervised-microreboot path — a journalfs mount under
    {!Kvfs.Vfs} supervision with module panics injected on a fixed
    cadence, remount-with-replay as the restart function, and [ESTALE]
    epoch re-minting in the caller retry loop, over the same hostile
    disk.  {!journalfs_machine} builds the journalfs machine for every
    mode the FS supports, so crash-safety checks outside the registry
    run through the same disk and the same checker. *)

type packed = Packed : (module Kspec.Krefine.MACHINE with type vars = 'a) -> packed

type entry = {
  hname : string;  (** the harness name [safeos refine --harness] takes *)
  subsystem : string;  (** boot-registry subsystem this harness verifies *)
  machine : packed;
}

val all : unit -> entry list
(** Every registered harness, registration order. *)

val find : string -> entry option
val subsystems_covered : unit -> string list

val run :
  ?config:Kspec.Krefine.config -> entry -> Kspec.Fs_spec.op list -> Kspec.Krefine.coverage
(** Drive a harness's machine through a trace. *)

(** {1 The registered harnesses} *)

val journalfs : entry
(** The journaled block FS and its disk ([journalfs_machine Journaled]):
    program = mounted FS, disk = {!Kblock.Blockdev} behind a
    {!Kblock.Wcache}, crash = cache-loss residues (unflushed-subset
    states, reorderings included) patched over the settled media image
    ({!Kblock.Wcache.crash_devices}) + replay mount over a cold cache. *)

val cowfs : entry
(** The copy-on-write FS (no crash semantics: the tree is persistent). *)

val microreboot : entry
(** Journalfs under {!Kvfs.Vfs} supervision with a module panic injected
    every {!panic_cadence} ops: each panic is contained to [EIO], the
    mount quiesces ([EINTR]) and microreboots via remount-with-replay,
    and the stale handle epoch is re-minted on [ESTALE] — the whole
    recovery choreography must be invisible in the abstract map. *)

val panic_cadence : int
(** Ops between injected panics in {!microreboot} (64). *)

val wcache_capacity : int
(** Dirty-set bound of the write-back cache under every disk-backed
    harness (small, so journal transactions force mid-epoch writeback). *)

val journalfs_machine :
  ?group_commit:bool -> ?barriers:bool -> Kfs.Journalfs.mode -> packed
(** Journalfs and the hostile disk as one machine, built and remounted
    with {!Kfs.Journalfs.mkfs_on}'s [mode], [group_commit] (default
    [false]) and [barriers] (default [true]).  The name follows them:
    ["journalfs"] (the registered {!journalfs}), ["journalfs+group-commit"],
    ["directfs"], and ["journalfs.missing-barrier"] for the seeded
    mutant whose commit record flushes together with its data blocks
    and whose checkpoint superblock flushes with its home writes — under
    the write-back cache a crash can then tear a checkpoint, some home
    blocks plus the advanced superblock surviving while the rest vanish
    with replay disabled.  Only ["journalfs"] is registered; the others
    exist so the crash-safety experiment can show group commit safe and
    Direct mode convicted, and tests can prove the crash enumerator
    convicts the mutant with a shrunk counterexample. *)

val crash_check : images:int -> packed -> Kspec.Fs_spec.op list -> Kspec.Krefine.coverage
(** The crash-safety experiment's check (EXP-CRASH): {!Kspec.Krefine.run}
    with a crash point at every op and [images] crash images at each, no
    frontier bound (so no image is skipped), no shrinking, and every
    divergence kept. *)

val microreboot_sabotaged : ?panic_every:int -> unit -> packed
(** The {!microreboot} machine with a seeded replay-skip fault: the
    remount-on-restart first zeroes the journal record blocks, so
    recovery silently skips replay and committed-but-unfsynced
    operations are lost.  Not registered — it exists so tests can prove
    the lockstep check catches exactly this fault. *)

val recorded_trace : ?target_ops:int -> seed:int -> unit -> Kspec.Fs_spec.op list
(** A real-traffic trace for the harnesses: {!Kload.Trace.record} under
    [/dur], rebased to the mount root.  Deterministic in [seed]. *)
