(** Axiomatic models of unverified components and boundary shims (§4.4).

    A verified module may rely on an unverified substrate only through
    explicit, minimal assumptions.  Here the block I/O axioms abstract
    [buffer_head] away and are "defined in terms of bytes": a device is a
    map from block numbers to blocks, reads return the most recently
    written bytes, writes are whole-block, and flush is a durability
    barrier.  {!shim} wraps a concrete implementation and checks every
    call against these axioms. *)

type block_ops = {
  nblocks : int;
  block_size : int;
  read : int -> bytes;
  write : int -> bytes -> unit;
  flush : unit -> unit;
}
(** The byte-level interface the axioms talk about.  Concrete devices
    ([Kblock.Blockdev]) expose themselves as a [block_ops]. *)

type axiom_violation = { call : string  (** which operation broke an assumption *) }

exception Axiom_violation of axiom_violation

type shim

val shim : ?strict:bool -> block_ops -> shim
(** Wrap a device in an axiom-checking boundary.  With [strict] (default)
    a breach raises {!Axiom_violation}; otherwise breaches accumulate in
    {!violations}. *)

val violations : shim -> axiom_violation list

val ops : shim -> block_ops
(** The checked operations a verified client should call. *)

val reference : nblocks:int -> block_size:int -> block_ops
(** A pure in-memory device satisfying the axioms by construction. *)
