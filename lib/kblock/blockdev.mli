(** Simulated block device with a volatile write cache.

    Writes land in a cache and reach the media only on {!flush}; a crash
    loses an arbitrary subset of cached writes (disks reorder).  This is
    the failure model journaling defends against, and
    {!crash_media_states} makes it enumerable for exhaustive
    crash-safety checking.

    The media is a two-level table of immutable blocks — a top table of
    chunks of 64 block pointers, the last chunk partial when [nblocks]
    is not a multiple of 64 — so a media {!image} is a value: an image
    built from another by {!patch} shares every block and every chunk it
    did not write into, and taking or mounting one copies nothing.  A
    device copies only when it lands writes while an image may hold its
    table: the top table once, then each chunk it writes into once
    (pointers, never block data), so the cost follows the writes, not
    the device size.  A crash image is therefore an immutable block
    table plus the chunks its residue touched. *)

type t

val create : nblocks:int -> block_size:int -> t
(** A zeroed device; every block starts out as one shared zero block. *)

val nblocks : t -> int
val block_size : t -> int

val read : t -> int -> bytes Ksim.Errno.r
(** Serve from the cache (latest write wins) or the media, as a fresh
    [bytes].  [EIO] out of range. *)

val write : t -> int -> bytes -> unit Ksim.Errno.r
(** Buffer a whole-block write.  [EINVAL] on wrong size, [EIO] out of
    range. *)

val flush : t -> unit
(** Durability barrier: apply all cached writes to the media in order. *)

val crash : t -> unit
(** Drop every cached write (the canonical single crash). *)

(** {1 Media images} *)

type image
(** The media at one instant: an immutable table of [nblocks] blocks.
    Cached (unflushed) writes are not part of it. *)

val image : t -> image
(** The device's media now, in O(1).  Later writes and flushes on the
    device do not change it. *)

val of_image : block_size:int -> image -> t
(** A fresh device (empty cache, zero counters) whose media is the image,
    in O(1).  Writes and flushes on it leave the image unchanged. *)

val patch : image -> (int * string) list -> image
(** [patch img writes] is [img] with each [(blkno, data)] landed in list
    order (last write wins).  It copies the top table once and each
    chunk the writes touch once: [nblocks / 64 + 64 × chunks touched]
    pointers, 64 plus 64 per touched chunk on a 4096-block device.
    [img] itself is unchanged; the result shares every untouched chunk
    with it.  [data] must be a whole block. *)

(** {1 Crash enumeration} *)

val crash_media_states : t -> limit:int -> bytes array list
(** Distinct media images reachable by crashing now: any subset of cached
    writes may have survived.  Exhaustive when [2^pending <= limit];
    otherwise empty set, all prefixes, full set, and single-dropped
    subsets, deduplicated, up to [limit]. *)

val crash_states : t -> limit:int -> t list
(** {!crash_media_states} as fresh devices with empty caches. *)

val snapshot_media : t -> bytes array
(** The media as a deep copy, one fresh [bytes] per block. *)

val of_media : block_size:int -> bytes array -> t
(** A fresh device over a deep copy of [media]. *)

val reads : t -> int
val writes : t -> int
val flushes : t -> int
val pending_writes : t -> int

val io : t -> Io.t
(** The raw device as a layerable {!Io.t}: reads/writes as above, [flush]
    never fails. *)

val to_ops : t -> Kspec.Axiom.block_ops
(** View as the byte-level interface the §4.4 axioms talk about. *)
