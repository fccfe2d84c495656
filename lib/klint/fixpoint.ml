(* The one summary fixpoint every interprocedural pass runs: kracer's
   [may_acquire] and [guaranteed_entry], kown's ownership summaries,
   ktcb's taint over call edges and kdur's durability transfers.

   [solve] is a worklist drained in item order.  Every item starts
   dirty.  Evaluating one runs its [step] under a [lookup] that records
   each key it reads; the result is written under [key item] only when
   [equal] says it differs from the current fact, so the table holds
   exactly the facts that ever moved off [default] (or off their
   [seed]).  A write marks dirty every item that read that key since it
   last changed, which covers every item whose latest evaluation read
   it.  The solver sweeps the items in list order, evaluating the dirty
   ones and wrapping round, until none is dirty.

   Items may share a key (ktcb keys its call edges by caller) if each of
   them reads it.  Then a clean item is one that round-robin would
   evaluate to the fact it already holds, so [solve] steps through
   round-robin's sequence of tables, skipping only evaluations that
   write nothing: it returns round-robin's facts, for kdur's non-monotone
   transfers too, in no more evaluations.  A FIFO queue would reorder a
   sweep and lose both guarantees.

   [step] also gets [emit], and [solve] returns what each item's latest
   evaluation emitted, in item order.  An item is dirtied whenever a
   fact it read changes, so its latest evaluation read only final facts:
   as long as an evaluation depends on nothing but its item and the
   facts it reads, what it emitted is what a walk under the settled
   table would emit, and no pass needs a reporting walk of its own.

   Round-robin settles within [List.length items + 1] rounds, a fact
   crossing at least one call edge per round; counted in evaluations
   that bound is [items * (items + 1)].  A table still moving past it is
   not a fixpoint, and reporting from it would hide findings, so [solve]
   raises [Diverged] instead of returning it. *)

exception Diverged of { pass : string; evaluations : int }

type stats = { pass : string; items : int; evaluations : int }

let solve ~pass ~equal ~default ?(seed = []) ~key ~step items =
  let items = Array.of_list items in
  let n = Array.length items in
  (* Keys interned to ints.  [facts.(id)] is [None] while the key holds
     [default]; [readers.(id)] lists the items that read it since it last
     changed, newest first. *)
  let ids = Hashtbl.create 256 in
  let facts = ref [||] and readers = ref [||] in
  let intern k =
    match Hashtbl.find ids k with
    | id -> id
    | exception Not_found ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids k id;
        if id = Array.length !facts then begin
          facts := Array.append !facts (Array.make (max 64 id) None);
          readers := Array.append !readers (Array.make (max 64 id) [])
        end;
        id
  in
  List.iter (fun (k, v) -> !facts.(intern k) <- Some v) seed;
  let keys = Array.map (fun item -> intern (key item)) items in
  let value id = match !facts.(id) with Some v -> v | None -> default in
  let dirty = Array.make n true and pending = ref n in
  let emitted = Array.make n [] and evaluations = ref 0 in
  let current = ref 0 and out = ref [] in
  let read k =
    let id = intern k in
    (match !readers.(id) with
    | r :: _ when r = !current -> ()
    | l -> !readers.(id) <- !current :: l);
    value id
  in
  let emit o = out := o :: !out in
  let evaluate i =
    current := i;
    incr evaluations;
    out := [];
    let v = step ~emit read items.(i) in
    emitted.(i) <- List.rev !out;
    let id = keys.(i) in
    if not (equal v (value id)) then begin
      !facts.(id) <- Some v;
      List.iter
        (fun r ->
          if not dirty.(r) then begin
            dirty.(r) <- true;
            incr pending
          end)
        !readers.(id);
      !readers.(id) <- []
    end
  in
  let bound = n * (n + 1) and i = ref 0 in
  while !pending > 0 do
    if dirty.(!i) then begin
      if !evaluations = bound then raise (Diverged { pass; evaluations = bound });
      dirty.(!i) <- false;
      decr pending;
      evaluate !i
    end;
    i := if !i + 1 = n then 0 else !i + 1
  done;
  let facts = !facts in
  let lookup k =
    match Hashtbl.find ids k with
    | id -> ( match facts.(id) with Some v -> v | None -> default)
    | exception Not_found -> default
  in
  ( lookup,
    Hashtbl.fold
      (fun k id acc -> match facts.(id) with Some v -> (k, v) :: acc | None -> acc)
      ids [],
    List.concat (Array.to_list emitted),
    { pass; items = n; evaluations = !evaluations } )
