(** Block-based file system with a write-ahead journal — the ext4-shaped
    subject of the crash-safety experiment (EXP-CRASH, BENCH-JOURNAL).

    Every operation stages only the blocks it changed into one journal
    transaction, so a crash observes all of an operation or none of it:
    the data blocks a write or truncate's changed bytes overlap (all of a
    directory's or a new inode's content), the inode block when the
    inode appears, disappears, or changes size or block list, and the
    bitmap block when the allocation changed.  An inode keeps its block
    numbers; an op that changes no block does no I/O.  [Direct] mode is
    the ablation: identical block writes issued in place with no journal
    — the classic non-journaled FS the crash checker convicts.

    Media traffic goes through a {!Kblock.Io.t} (default: the raw
    device), so the FS can run over a {!Kblock.Flakydev} /
    {!Kblock.Resilient} stack.  A persistent [EIO] (one that survives the
    retry layer) aborts the operation cleanly and degrades the FS
    ext4-style to errors=remount-ro: {!is_readonly} flips, subsequent
    mutations fail [EROFS], and reads keep working. *)

type mode =
  | Journaled
  | Direct

type geometry = {
  nblocks : int;
  block_size : int;
  jblocks : int;  (** journal-area blocks (header + records) *)
  ninodes : int;
}

val default_geometry : geometry

type t

val mkfs_on :
  ?geometry:geometry ->
  ?group_commit:bool ->
  ?barriers:bool ->
  ?io:Kblock.Io.t ->
  mode ->
  Kblock.Blockdev.t ->
  t
(** Format a {e freshly created (zeroed)} device and mount it.  With
    [group_commit] operations accumulate into one journal transaction
    that commits at [Fsync] (or when full) — higher throughput, and a
    crash legally loses the whole uncommitted batch.  [io] (default
    [Kblock.Blockdev.io dev]) carries all media traffic; pass a
    flaky/resilient stack over [dev] to run under fault injection, or a
    {!Kblock.Wcache} to run over the volatile write-back disk contract.
    [~barriers:false] is the seeded missing-barrier journal mutant (see
    {!Kblock.Journal.format}) — deliberately broken, for the refinement
    checker to convict.  Formatting itself expects reliable I/O. *)

val mount :
  ?geometry:geometry ->
  ?group_commit:bool ->
  ?barriers:bool ->
  ?io:Kblock.Io.t ->
  mode ->
  Kblock.Blockdev.t ->
  t
(** Mount an existing device: journal recovery (in [Journaled] mode), then
    parse.  A disk that cannot be parsed yields a {!is_corrupt} instance
    whose operations all fail with [EIO]. *)

val apply : t -> Kspec.Fs_spec.op -> Kspec.Fs_spec.result
(** [Fsync] checkpoints the journal (or flushes the device in [Direct]
    mode).  [ENOSPC] when data blocks, inodes, or transaction capacity
    run out.  [EIO] aborts the op and remounts read-only (see above);
    once read-only, mutations fail [EROFS] and [Fsync] is a no-op. *)

val interpret : t -> Kspec.Fs_spec.bindings
val device : t -> Kblock.Blockdev.t
val journal_stats : t -> Kblock.Journal.stats option
val is_corrupt : t -> bool

val is_readonly : t -> bool
(** The errors=remount-ro latch: set by the first persistent I/O failure,
    never cleared for the lifetime of this mount. *)

val max_file_size : mode -> geometry -> int
(** The largest file a write or truncate may produce: what an inode's
    direct block pointers reach and, in [Journaled] mode, what one journal
    transaction carries next to the inode and bitmap blocks.  A larger
    write fails [ENOSPC] and changes nothing. *)

(** Mountable adapters (fresh default-geometry device per [mkfs]). *)
module Journaled_fs : Kvfs.Iface.FS_OPS with type fs = t

module Journaled_group_fs : Kvfs.Iface.FS_OPS with type fs = t
