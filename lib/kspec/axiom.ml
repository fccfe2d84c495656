(* Axiomatic models of unverified components, and the shim layers that
   bridge verified and unverified code.

   A verified module may rely on an unverified substrate (here: the block
   I/O layer) only through explicit assumptions.  Following the paper, the
   axioms abstract [buffer_head] away entirely and are "defined in terms of
   bytes": a block device is a map from block numbers to byte blocks, reads
   return the most recently written content, and flush is a durability
   barrier.  [shim] wraps any concrete implementation and checks each call
   against the axioms, recording a violation when the unverified side
   breaks an assumption — the "verified file system will appear buggy if
   either the block I/O layer is buggy or the model erroneous". *)

type block_ops = {
  nblocks : int;
  block_size : int;
  read : int -> bytes;
  write : int -> bytes -> unit;
  flush : unit -> unit;
}

type axiom_violation = { call : string }

exception Axiom_violation of axiom_violation

type shim = {
  shim_ops : block_ops;
  shim_violations : axiom_violation list ref;
}

let violations shim = List.rev !(shim.shim_violations)
let ops shim = shim.shim_ops

let shim ?(strict = true) (underlying : block_ops) =
  (* The model: latest content written per block (bytes are copied so the
     unverified side cannot mutate the model's history behind our back). *)
  let model : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref [] in
  let report ~call =
    let v = { call } in
    violations := v :: !violations;
    if strict then raise (Axiom_violation v)
  in
  let check_blkno ~call blkno = if blkno < 0 || blkno >= underlying.nblocks then report ~call in
  let read blkno =
    check_blkno ~call:"read" blkno;
    let data = underlying.read blkno in
    (* a read returns whole blocks, holding the most recently written bytes *)
    if Bytes.length data <> underlying.block_size then report ~call:"read";
    (match Hashtbl.find_opt model blkno with
    | Some expected when not (String.equal expected (Bytes.to_string data)) -> report ~call:"read"
    | Some _ | None -> ());
    data
  in
  let write blkno data =
    check_blkno ~call:"write" blkno;
    if Bytes.length data <> underlying.block_size then report ~call:"write";
    underlying.write blkno data;
    Hashtbl.replace model blkno (Bytes.to_string data)
  in
  let flush () = underlying.flush () in
  { shim_ops = { underlying with read; write; flush }; shim_violations = violations }

(* A pure in-memory reference device satisfying the axioms by construction;
   used in tests as the "obviously correct" side of differential checks. *)
let reference ~nblocks ~block_size =
  let store = Array.init nblocks (fun _ -> Bytes.make block_size '\000') in
  {
    nblocks;
    block_size;
    read = (fun i -> Bytes.copy store.(i));
    write = (fun i data -> store.(i) <- Bytes.copy data);
    flush = (fun () -> ());
  }
