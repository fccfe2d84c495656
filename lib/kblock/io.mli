(** The block I/O interface the rest of the kernel programs against.

    A first-class record so that layers stack at runtime:
    [Blockdev.io dev] is the raw device, [Flakydev.io] wraps any [t] with
    injected faults, [Resilient.io] wraps any [t] with retries,
    [Wcache.io] interposes a volatile write-back cache.  All operations
    are fallible — a layered path can fail even a [flush] (e.g. while
    the device is down).

    {1 Durability contract}

    An acknowledged [write] is {b volatile}: it may sit in a [Wcache]
    write-back layer, the one place a write can be volatile, and be
    lost — or land {e out of order} with respect to other unflushed
    writes — if the system crashes.  Nothing about a successful [write]
    return implies the data reached stable media.

    [flush] is a {b full barrier}: when it returns [Ok ()], every write
    acknowledged before the flush is durable, and is ordered before any
    write issued after the flush.  Crash-consistency therefore belongs
    to the caller: a client that needs "A durable before B" must flush
    between them, and a client that acks durability to {e its} caller
    (e.g. journalfs fsync) must flush first.

    [write_fua], when present, is a forced-unit-access write — durable
    on ack but ordered only with respect to itself; it does not drain
    other pending writes.  [fua] is the compat shim for stacking: it
    uses the native variant when the layer provides one and otherwise
    falls back to [write] + [flush], which is strictly stronger. *)

type t = {
  nblocks : int;
  block_size : int;
  read : int -> bytes Ksim.Errno.r;
  write : int -> bytes -> unit Ksim.Errno.r;
  flush : unit -> unit Ksim.Errno.r;
  write_fua : (int -> bytes -> unit Ksim.Errno.r) option;
      (** Native FUA write, durable on ack; [None] if the layer only
          offers the write/flush pair.  Use {!fua} rather than calling
          this directly. *)
}

val fua : t -> int -> bytes -> unit Ksim.Errno.r
(** [fua t blkno data] writes durably: the native [write_fua] when the
    layer has one, otherwise [write] followed by a full [flush]. *)
