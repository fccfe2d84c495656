(** Simulated block device: the media, and nothing volatile.

    A {!write} lands on the media at once and {!flush} only counts, so
    the one place a crash can lose a write is a {!Wcache} above the
    device.  Crash images that keep an arbitrary subset of the cache's
    unflushed writes, in arbitrary order, are {!Wcache} residues patched
    over this device's media {!image} ({!Wcache.crash_devices}).

    The media is a two-level table of immutable blocks — a top table of
    chunks of 64 block pointers, the last chunk partial when [nblocks]
    is not a multiple of 64 — so a media {!image} is a value: an image
    built from another by {!patch} shares every block and every chunk it
    did not write into, and taking or mounting one copies nothing.  A
    device copies only when it lands writes while an image may hold its
    table: the top table once, then each chunk it writes into once
    (pointers, never block data), so the cost follows the writes, not
    the device size.  A crash image is therefore an immutable block
    table plus the chunks its residue touched, and {!read} hands out its
    blocks themselves, so a mount parses the image in place. *)

type t

val create : nblocks:int -> block_size:int -> t
(** A zeroed device; every block starts out as one shared zero block. *)

val block_size : t -> int

val read : t -> int -> string Ksim.Errno.r
(** The block's media content: the media's own block, no copy.  [EIO]
    out of range.  {!io} and {!to_ops} read a fresh [bytes] instead. *)

val write : t -> int -> bytes -> unit Ksim.Errno.r
(** Land a whole-block write on the media (last write wins).  [EINVAL]
    on wrong size, [EIO] out of range. *)

val flush : t -> unit
(** A no-op barrier, counted in {!flushes}: every write is already on
    the media. *)

(** {1 Media images} *)

type image
(** The media at one instant: an immutable table of [nblocks] blocks,
    every write landed before it included. *)

val image : t -> image
(** The device's media now, in O(1).  Later writes and flushes on the
    device do not change it. *)

val of_image : block_size:int -> image -> t
(** A fresh device (zero counters) whose media is the image, in O(1).
    Writes and flushes on it leave the image unchanged. *)

val patch : image -> (int * string) list -> image
(** [patch img writes] is [img] with each [(blkno, data)] landed in list
    order (last write wins).  It copies the top table once and each
    chunk the writes touch once: [nblocks / 64 + 64 × chunks touched]
    pointers, 64 plus 64 per touched chunk on a 4096-block device.
    [img] itself is unchanged; the result shares every untouched chunk
    with it.  [data] must be a whole block. *)

val snapshot_media : t -> bytes array
(** The media as a deep copy, one fresh [bytes] per block. *)

val of_media : block_size:int -> bytes array -> t
(** A fresh device over a deep copy of [media]. *)

val reads : t -> int
val writes : t -> int
val flushes : t -> int

val io : t -> Io.t
(** The raw device as a layerable {!Io.t}: writes as above, each read a
    fresh copy of the block, [flush] never fails. *)

val to_ops : t -> Kspec.Axiom.block_ops
(** View as the byte-level interface the §4.4 axioms talk about. *)
