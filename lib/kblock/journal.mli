(** A jbd2-style write-ahead journal over any {!Io.t}.

    Layout: block 0 is the journal superblock, blocks 1..[jblocks]-1 hold
    journal records, everything from [jblocks] up is the client's home
    area.  The commit protocol flushes descriptor+data before the commit
    record and the commit record before any home write, so a crash
    observes either nothing of a transaction or a fully replayable one —
    never a torn in-place update.

    Because the journal runs over an {!Io.t}, it can sit on a raw
    {!Blockdev} ([Blockdev.io dev]) or on a flaky/resilient stack.  I/O
    failures abort cleanly: a failed {!commit} rolls back and leaves the
    transaction uncommitted; a failed {!checkpoint} leaves every pending
    transaction pending, to be retried or replayed at recovery. *)

type t

type tx
(** An open transaction: a batch of whole-block home writes that commit
    atomically. *)

type stats = {
  mutable aborted_commits : int;
  mutable checkpoints : int;
  mutable replayed_txs : int;
  mutable journal_block_writes : int;
}

val format : ?barriers:bool -> Io.t -> jblocks:int -> t
(** Initialize the journal area (blocks [0..jblocks-1]) on a fresh device.
    Runs over a reliable view of the device; I/O failure here is fatal.
    Ends on an unconditional flush, so the empty journal is durable.
    @durable
    [~barriers:false] is the seeded missing-barrier mutant: the commit
    record flushes together with its data blocks, and the checkpoint
    superblock update flushes together with the home writes — one barrier
    per logical op instead of two.  Under a write-back cache a crash can
    then observe the commit record without its data, or the advanced
    superblock without the home writes it vouches for.  Deliberately
    broken; exists for the refinement checker to convict. *)

val recover : ?barriers:bool -> Io.t -> jblocks:int -> t
(** Mount after a crash or clean shutdown: scan the journal, replay every
    committed-but-not-checkpointed transaction, and return a clean
    journal.  Torn records (missing commit, checksum mismatch) and
    everything after them are ignored.  Replayed transaction count is
    visible in {!stats}.  Like {!format}, expects reliable I/O (and takes
    the same [?barriers] mutant knob).  Returns only after an
    unconditional flush: the replayed image is durable.
    @durable *)

val data_start : t -> int
(** First home block (= [jblocks]). *)

val tx_begin : t -> tx
(** Open a transaction, purely in-memory until {!commit}.  The caller
    owns it and must hand it to {!commit} or {!abort}.
    @returns_owned *)

val tx_write : t -> tx -> blkno:int -> bytes -> unit Ksim.Errno.r
(** Stage a whole-block write to home block [blkno] (must be in the home
    area).  Rewrites of the same block within a transaction coalesce. *)

val commit : t -> tx -> unit Ksim.Errno.r
(** Make the transaction durable (two flushes).  Home locations are
    updated lazily at the next {!checkpoint} (one is forced automatically
    when the journal area fills).  On I/O failure the journal head rolls
    back over the partial records and the transaction stays uncommitted —
    the error propagates and [aborted_commits] increments.  Either way
    the transaction is finished with: it must not be reused.
    [Ok] from commit is a durability promise: every journal record of the
    transaction has hit stable media before control returns (kdur R17
    polices this; the [?barriers:false] mutant path is the grandfathered
    counterexample).  A transaction of more than {!max_tx_writes} blocks,
    which even an empty journal could not hold, fails [EOVERFLOW] before
    any I/O.
    @durable
    @consumes: tx *)

val abort : t -> tx -> unit
(** Discard an uncommitted transaction without touching the device; the
    transaction must not be reused afterwards.
    @consumes: tx *)

val checkpoint : t -> unit Ksim.Errno.r
(** Apply committed transactions to their home locations, flush, advance
    the on-disk checkpointed sequence number, and reclaim journal space.
    On I/O failure nothing is forgotten: pending transactions stay
    pending and the checkpointed sequence does not advance, so a retry or
    crash-recovery replay (idempotent home writes) completes the job.
    [Ok] promises the home writes and the superblock advance are on
    stable media (again modulo the [?barriers:false] mutant).
    @durable *)

val tx_size : tx -> int
(** Distinct blocks staged in an open transaction so far. *)

val max_tx_writes : t -> int
(** Largest number of distinct blocks one transaction may touch: what one
    descriptor block can name and an empty journal area can hold. *)

val tx_capacity : block_size:int -> jblocks:int -> int
(** {!max_tx_writes} of a journal with this geometry, before it exists. *)

val pending_txs : t -> int
val stats : t -> stats
