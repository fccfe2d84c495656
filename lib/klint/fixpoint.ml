(* The one summary fixpoint every interprocedural pass runs: kracer's
   [may_acquire] and [guaranteed_entry], kown's ownership summaries,
   ktcb's taint over call edges and kdur's durability transfers.

   [solve] goes round-robin over [items] in order, updating a table in
   place: each item's [step] reads the current facts through [lookup]
   and its result is written under [key item] only when it differs from
   what [lookup] returns, so the table holds exactly the facts that ever
   moved off [default] (or off their [seed]).  It stops at the first
   round that writes nothing.

   A fact crosses at least one call edge per round, so a pass settles
   within [List.length items + 1] rounds; a table still moving past that
   bound is not a fixpoint, and reporting from it would hide findings.
   [solve] raises [Diverged] instead of returning it. *)

exception Diverged of { pass : string; rounds : int }

type stats = { pass : string; rounds : int; bound : int }

let solve ~pass ~equal ~default ?(seed = []) ~key ~step items =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) seed;
  let lookup k = Option.value ~default (Hashtbl.find_opt tbl k) in
  let bound = List.length items + 1 in
  let rec round n =
    if n > bound then raise (Diverged { pass; rounds = bound });
    let wrote =
      List.fold_left
        (fun wrote item ->
          let k = key item in
          let v = step lookup item in
          if equal v (lookup k) then wrote
          else begin
            Hashtbl.replace tbl k v;
            true
          end)
        false items
    in
    if wrote then round (n + 1) else n
  in
  let rounds = round 1 in
  (lookup, Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [], { pass; rounds; bound })
