(* The supervised block layer: an oops firewall in front of any [Io.t]
   stack, with generation-stamped clients.

   [io] mints a client bound to the epoch current at mint time.  Every
   operation first validates the client's epoch (a client minted before
   the last microreboot answers [ESTALE] — the block-layer analogue of a
   stale fd), then runs through [Ksim.Supervisor.call], so an exception
   thrown anywhere in the wrapped stack is contained to an errno and
   trips a microreboot: the [remake] factory rebuilds the stack (e.g.
   re-opens the device) and new clients minted afterwards see the fresh
   generation.  Budget exhaustion degrades the layer to hard [EIO] —
   the per-subsystem degraded mode for block devices, where serving
   reads from a dead stack would be a lie. *)

type t = {
  sup : Ksim.Supervisor.t;
  mutable base : Io.t;
}

let create ?policy ?stats ~name ~remake () =
  let base = remake () in
  let t = { sup = Ksim.Supervisor.create ?policy ?stats ~name (); base } in
  Ksim.Supervisor.set_restart t.sup (fun () -> t.base <- remake ());
  t

let supervisor t = t.sup
let epoch t = Ksim.Supervisor.epoch t.sup

(* The epoch check lives *inside* the containment thunk: the supervisor
   may perform the deferred microreboot at the top of [call], and a
   client minted before the oops must not reach the rebuilt stack — not
   even on the very call that triggered the reboot. *)
let guarded t ~minted f =
  Ksim.Supervisor.call t.sup (fun () ->
      let ( let* ) = Ksim.Errno.( let* ) in
      let* () = Ksim.Supervisor.validate t.sup minted in
      f ())

(* The four epoch-checked forwarders, named so their durability contracts
   are statable: supervision contains oopses, it does not flush.  A write
   that survives the firewall is exactly as cache-volatile as it was
   underneath, so [write] re-exports the barrier obligation, [flush] is
   the stack's barrier, and [write_fua] alone may promise durability.
   kdur (R18) convicts wrappers like these when the contract is dropped. *)

let read t ~minted blkno = guarded t ~minted (fun () -> t.base.Io.read blkno)

let write t ~minted blkno data = guarded t ~minted (fun () -> t.base.Io.write blkno data)
[@@orders_after "t"]

let flush t ~minted () = guarded t ~minted (fun () -> t.base.Io.flush ())
[@@flushes "t"]

let write_fua t ~minted blkno data = guarded t ~minted (fun () -> Io.fua t.base blkno data)
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
