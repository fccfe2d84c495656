(** The volatile write-back cache layer: barrier semantics made explicit.

    [write] acks into a bounded in-cache dirty set (evicting via seeded
    writeback when full); [flush] is the full barrier that drains it.  A
    crash loses an arbitrary subset — in arbitrary order — of the writes
    issued since the last completed flush, so crash is no longer a prefix
    of the write sequence ({!crash_frames} / {!crash_residues} enumerate
    the post-crash images).  A runtime barrier-discipline checker
    ({!audit}) flags ALICE-style ordering violations: a block whose
    unflushed content is read back as a dependency of a later write
    without an intervening flush.

    Failpoint sites, registered (disabled) when [fp] is supplied:
    [<name>.flush-dropped] makes [flush] ack without draining or closing
    the barrier epoch (a lying drive); [<name>.writeback-reorder] makes
    capacity eviction destage a seeded random victim instead of the
    oldest. *)

type t

type entry = {
  wseq : int;
  blkno : int;
  data : string;
  fua : bool;
}

type frame = {
  durable : entry list;  (** oldest first; definitely on media *)
  volatile : entry list;
      (** oldest first; any subset in any order may have landed *)
}

type violation = {
  v_blkno : int;  (** the block read back while unflushed *)
  v_read_seq : int;  (** wseq of the unflushed content read *)
  v_write_blkno : int;  (** the dependent write issued barrier-free *)
  v_write_seq : int;
}

val create :
  ?name:string ->
  ?capacity:int ->
  ?fp:Ksim.Failpoint.t ->
  ?seed:int ->
  Io.t ->
  t
(** Defaults: name ["wcache"], capacity 32 dirty blocks, no failpoints,
    seed 0.
    @raise Invalid_argument on [capacity < 1]. *)

val io : t -> Io.t
(** The cache as an [Io.t] layer ([write_fua] is native: write-through
    plus base FUA). *)

val read : t -> int -> bytes Ksim.Errno.r
val write : t -> int -> bytes -> unit Ksim.Errno.r
val write_fua : t -> int -> bytes -> unit Ksim.Errno.r
val flush : t -> unit Ksim.Errno.r

val crash : t -> unit
(** The canonical single crash: every write still in the dirty set is
    gone.  Writes already written back stay on the base device, which
    keeps every write it is given. *)

(** {1 Crash-surface enumeration}

    The cache logs every write since the last completed flush (the open
    {e barrier epoch}).  The crash window opens at {!disk}: from then on
    the cache also keeps the closed epochs since {!take_durable} was
    last called.  A bare cache, with no {!disk} attached, drops each
    epoch as its flush completes, so its memory stays bounded however
    long it runs, and {!crash_frames}, {!crash_residues} and
    {!take_durable} see only the open epoch.  A post-crash image is a
    residue replayed in list order over the {!Blockdev.image} of the
    media as of the last {!take_durable}; {!disk} below is the one place
    that does it. *)

val crash_frames : t -> frame list
(** One frame per barrier interval in the retained window: the epochs
    before it are durable, of the epoch itself any subset in any order
    may have landed.  On a bare cache, one frame: the open epoch. *)

val crash_residues : t -> limit:int -> entry list list
(** Up to [limit] distinct write sequences sampled from the frames
    (round-robin), exhaustive for small volatile sets (all subsets, plus
    permutations up to 3 entries) and otherwise the structured corners —
    nothing, everything, prefixes, suffixes, single-dropped — plus
    seeded draws.  Deterministic in the instance seed and write count.
    Apply a residue in list order over the media snapshot. *)

val take_durable : t -> entry list
(** The closed (durable) epochs, oldest first, clearing them from the
    retained window: fold these into the media snapshot that future
    residues are applied over.  Call after each {!crash_residues} sweep
    to keep enumeration linear in trace length.  Always [[]] on a bare
    cache, which retains no closed epoch. *)

(** {1 Crash-enumerable disks}

    The one path from cache-loss residues to post-crash devices, in the
    verified-betrfs IOSystem shape: a crash is {!crash_devices}, then the
    caller's recovery (e.g. a journal-replay mount) on each device. *)

type disk
(** A device, the cache over it, and the media image as of the last
    settled barrier epoch. *)

val disk : Blockdev.t -> t -> disk
(** [disk dev cache] with [cache] directly over [Blockdev.io dev].  Opens
    the cache's crash window: from now on every completed flush keeps its
    closed epoch until this disk settles it.  Anything already closed is
    on [dev]'s media, so it is dropped ({!take_durable}) and the media
    imaged as is. *)

val settle : disk -> unit
(** Fold the closed (durable) epochs out of the cache's window into the
    settled image, so later crash devices start from them.  Call it
    before an operation whose earlier crash instants the caller can no
    longer judge (a checker's frontier resets at an fsync).  Landing is
    deferred to the next {!crash_devices}: settling copies no block
    table. *)

val crash_devices : disk -> limit:int -> Blockdev.t list
(** One fresh device per residue {!crash_residues} samples under
    [limit], each the settled image patched with the residue
    ({!Blockdev.patch}; block size read from the device): O(writes in
    the residue), sharing every other block.  Then {!settle}, so the
    retained window — and the next sweep's cost — stays proportional to
    the crash cadence. *)

(** {1 Barrier-discipline audit} *)

val audit : t -> violation list
(** Ordering violations observed so far, oldest first (bounded at 64;
    {!ordering_violations} has the true count).  While the
    {!Ksim.Export} is on, each is also kept as a ["wcache"]
    record (fields: cache name, blkno, read_seq, write_blkno,
    write_seq) — a record, never the cache, so a dropped cache and its
    base device stay collectable.  kdur reconciles them with its static
    R16 findings. *)

val ordering_violations : t -> int

(** {1 Counters} *)

val dirty_blocks : t -> int
val unflushed_writes : t -> int
(** Writes in the open barrier epoch (volatile right now). *)

val cache_hits : t -> int
val flushes : t -> int
val flush_drops : t -> int
val writebacks : t -> int
val reordered_writebacks : t -> int
val fua_writes : t -> int
