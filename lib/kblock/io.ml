(* The block I/O interface the rest of the kernel programs against.

   A first-class record rather than a functor so that layers stack at
   runtime: Blockdev.io gives the raw device, Flakydev.io wraps any io
   with injected faults, Resilient.io wraps any io with retries.  All
   three operations are fallible — unlike the bare device, a layered path
   can fail a flush (e.g. while the device is down).

   Durability contract: an acknowledged [write] is VOLATILE.  It may sit
   in a write-back cache (Wcache, the one volatile layer; the raw device
   keeps every write it is given) and be lost — or land out of order
   with respect to other unflushed writes — at a crash.  [flush] is a
   full barrier: when it returns [Ok ()], every write acknowledged before
   the flush is durable and ordered before every write issued after it.
   [write_fua], when a layer provides it, is a forced-unit-access write:
   durable on ack, but ordered only with respect to itself — it does not
   flush other pending writes.  [fua] is the compat shim: layers that do
   not implement FUA natively get write + full flush, which is strictly
   stronger. *)

type t = {
  nblocks : int;
  block_size : int;
  read : int -> bytes Ksim.Errno.r;
  write : int -> bytes -> unit Ksim.Errno.r;
  flush : unit -> unit Ksim.Errno.r;
  write_fua : (int -> bytes -> unit Ksim.Errno.r) option;
}

let fua t blkno data =
  match t.write_fua with
  | Some f -> f blkno data
  | None -> (
      match t.write blkno data with
      | Ok () -> t.flush ()
      | Error _ as e -> e)
