(* The supervised block layer: an oops firewall in front of any [Io.t]
   stack, with generation-stamped clients.

   [io] mints a client bound to the epoch current at mint time.  Every
   operation runs through [Ksim.Supervisor.call_minted], which validates
   the client's epoch (a client minted before the last microreboot
   answers [ESTALE] — the block-layer analogue of a stale fd) and
   contains an exception thrown anywhere in the wrapped stack to an
   errno that trips a microreboot: the [remake] factory rebuilds the
   stack (e.g. re-opens the device) and new clients minted afterwards
   see the fresh generation.  Budget exhaustion degrades the layer to hard [EIO] —
   the per-subsystem degraded mode for block devices, where serving
   reads from a dead stack would be a lie. *)

type t = {
  sup : Ksim.Supervisor.t;
  mutable base : Io.t;
}

let create ~name ~remake () =
  let base = remake () in
  let t = { sup = Ksim.Supervisor.create ~name (); base } in
  Ksim.Supervisor.set_restart t.sup (fun () -> t.base <- remake ());
  t

let epoch t = Ksim.Supervisor.epoch t.sup

(* The four epoch-checked forwarders, named so their durability contracts
   are statable: supervision contains oopses, it does not flush.  A write
   that survives the firewall is exactly as cache-volatile as it was
   underneath, so [write] re-exports the barrier obligation, [flush] is
   the stack's barrier, and [write_fua] alone may promise durability.
   kdur (R18) convicts wrappers like these when the contract is dropped. *)

let read t ~minted blkno =
  Ksim.Supervisor.call_minted t.sup ~minted (fun () -> t.base.Io.read blkno)

let write t ~minted blkno data =
  Ksim.Supervisor.call_minted t.sup ~minted (fun () -> t.base.Io.write blkno data)
[@@orders_after "t"]

let flush t ~minted () = Ksim.Supervisor.call_minted t.sup ~minted (fun () -> t.base.Io.flush ())
[@@flushes "t"]

let write_fua t ~minted blkno data =
  Ksim.Supervisor.call_minted t.sup ~minted (fun () -> Io.fua t.base blkno data)
[@@durable]

let io t : Io.t =
  let minted = epoch t in
  {
    Io.nblocks = t.base.Io.nblocks;
    block_size = t.base.Io.block_size;
    read = read t ~minted;
    write = write t ~minted;
    flush = flush t ~minted;
    write_fua = Some (write_fua t ~minted);
  }
