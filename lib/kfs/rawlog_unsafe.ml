(* rawlog_unsafe — the barrier-discipline exhibit: an append-only record
   log over a raw [Io.t], written the careless way pre-journaling file
   systems wrote metadata.  Block 0 is a header holding the record
   count; records go at 1, 2, ...  Nothing here ever flushes.

   Like [Memfs_unsafe] for the memory-safety rungs, this module exists
   to be convicted: each function below is a minimal specimen of one
   kdur rule, grandfathered in dur.baseline, and [append_chained] is
   also the runtime counterpart — driven over a {!Kblock.Wcache} named
   ["rawlog_unsafe"] it provokes the audit's read-back-then-dependent-
   write violation, which kdur's runtime-export reconciliation then
   matches against the static R16 finding in this file.

   Specimens:
   - [append]          @orders_after contract (correct, volatile by design)
   - [append_retry]    R18: wrapper that drops append's flush obligation
   - [append_chained]  R16: dependent write derived from a volatile read-back
   - [commit]          R17: @durable ack with no barrier behind it *)

type t = {
  io : Kblock.Io.t;
  mutable next : int; (* next free record block; block 0 is the header *)
}

let ( let* ) = Result.bind

(* Open a log over [io]; trusts the header if one is readable. *)
let attach (io : Kblock.Io.t) =
  let next =
    match io.Kblock.Io.read 0 with
    | Ok hdr -> max 1 (1 + Kblock.Codec.get_u32 hdr 0)
    | Error _ -> 1
  in
  { io; next }

let records t = t.next - 1

(** Append one record.  Acked straight out of the write-back cache: the
    record is {e not} durable, and this module never flushes — the
    caller inherits the barrier obligation, honestly declared.
    @orders_after: t *)
let append t data =
  let* () = t.io.Kblock.Io.write t.next data in
  t.next <- t.next + 1;
  Ok (t.next - 1)

(* The R18 specimen: a retry wrapper around [append] that forwards its
   volatile writes but states no contract of its own — the @orders_after
   obligation evaporates at this boundary, so callers reading only this
   function's signature believe the barrier question is settled.  The
   retry also collects an incidental R16: it re-sends [data] while the
   first attempt's ack is still cache-volatile, with no barrier deciding
   which of the two a crash keeps. *)
let append_retry t data =
  match append t data with
  | Error Ksim.Errno.EAGAIN -> append t data
  | r -> r

(* Derive a record from its predecessor: copy [data], stamp the first
   byte of [prev] into it as a chain mark.  Pure; the bug is in who
   calls it with what. *)
let chain_block prev data =
  let out = Bytes.copy data in
  Bytes.set out 0 (Bytes.get prev 0);
  out

(* The R16 specimen, ALICE's ordering bug in four lines: write record
   [a], read it straight back (still cache-volatile), derive record [b]
   from that read, write the derivation — no barrier anywhere.  A crash
   can keep the chained record while losing the record it chains to.
   Over a {!Kblock.Wcache} this exact sequence also trips the runtime
   audit (read-back taint, then a write to a different block). *)
let append_chained t a b =
  let* () = t.io.Kblock.Io.write t.next a in
  let* prev = t.io.Kblock.Io.read t.next in
  t.next <- t.next + 1;
  let chained = chain_block prev b in
  let* () = t.io.Kblock.Io.write t.next chained in
  t.next <- t.next + 1;
  Ok ()

(** Publish the record count in the header.  Claims the fsync contract —
    and implements none of it: the header write is acked from the cache
    and nothing is flushed, so the [Ok] below is a durability lie (R17,
    the same shape as the journal's [?barriers:false] ablation).
    @durable *)
let commit t =
  let hdr = Bytes.make t.io.Kblock.Io.block_size '\000' in
  Kblock.Codec.put_u32 hdr 0 (records t);
  let* () = t.io.Kblock.Io.write 0 hdr in
  Ok ()
