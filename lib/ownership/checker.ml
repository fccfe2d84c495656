(* The ownership checker: restricted and explicit ownership sharing.

   Implements the paper's three interface models for passing memory across
   a module boundary without copies (section 4.3):

     model 1 (transfer)        — ownership moves; the caller's capability is
                                 revoked forever and the callee must free.
     model 2 (exclusive lend)  — the callee gets read/write access for the
                                 duration of the call; the caller's rights
                                 are suspended; the callee cannot free and
                                 loses access when the call returns.
     model 3 (shared lend)     — caller, callee and others may read for the
                                 duration of the call; nobody may write.

   All three share memory (no payload copies) and are checked dynamically:
   every access presents a capability, and the checker validates it against
   the region's sharing state, recording a violation (or raising, in strict
   mode) on any breach.  [Message] provides the copying baseline the paper
   contrasts these models with. *)

type violation_kind =
  | Use_after_free
  | Double_free
  | Write_while_shared
  | Write_without_rights
  | Read_with_revoked_cap
  | Free_without_ownership
  | Free_while_lent
  | Out_of_bounds
  | Leak

let violation_kind_to_string = function
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Write_while_shared -> "write-while-shared"
  | Write_without_rights -> "write-without-rights"
  | Read_with_revoked_cap -> "read-with-revoked-cap"
  | Free_without_ownership -> "free-without-ownership"
  | Free_while_lent -> "free-while-lent"
  | Out_of_bounds -> "out-of-bounds"
  | Leak -> "leak"

type violation = {
  kind : violation_kind;
  region : int;
  culprit : string;
  detail : string;
}

exception Violation of violation

let pp_violation ppf v =
  Fmt.pf ppf "%s on r%d by %s: %s" (violation_kind_to_string v.kind) v.region v.culprit
    v.detail

type rstate =
  | Owned of Cap.t
  | Lent_exclusive of Cap.t (* the borrower; the owner's cap is revoked *)
  | Lent_shared of { owner : Cap.t; readers : Cap.t list }
  | Freed

type region = {
  rid : int;
  data : bytes;
  site : string;
  mutable state : rstate;
}

type t = {
  regions : (int, region) Hashtbl.t;
  mutable next_rid : int;
  mutable violations : violation list;
  strict : bool;
}

let create ?(strict = true) () =
  { regions = Hashtbl.create 64; next_rid = 0; violations = []; strict }

let report ck ~kind ~region ~culprit detail =
  let v = { kind; region; culprit; detail } in
  ck.violations <- v :: ck.violations;
  if ck.strict then raise (Violation v)

let violations ck = List.rev ck.violations
let violation_count ck = List.length ck.violations

let region_exn ck rid =
  match Hashtbl.find_opt ck.regions rid with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Checker: unknown region %d" rid)

let alloc ck ~holder ~size =
  ck.next_rid <- ck.next_rid + 1;
  let rid = ck.next_rid in
  let cap = Cap.make ~region_id:rid ~mode:Owner ~holder in
  let r = { rid; data = Bytes.create size; site = holder; state = Owned cap } in
  Hashtbl.replace ck.regions rid r;
  cap

let size ck (cap : Cap.t) = Bytes.length (region_exn ck cap.region_id).data

(* Access validation -------------------------------------------------- *)

let cap_may_read r (cap : Cap.t) =
  match r.state with
  | Freed -> false
  | Owned owner -> Cap.is_valid cap && cap.cap_id = owner.cap_id
  | Lent_exclusive borrower -> Cap.is_valid cap && cap.cap_id = borrower.cap_id
  | Lent_shared { owner; readers } ->
      Cap.is_valid cap
      && (cap.cap_id = owner.cap_id
         || List.exists (fun (c : Cap.t) -> c.cap_id = cap.cap_id) readers)

let cap_may_write r (cap : Cap.t) =
  match r.state with
  | Freed -> false
  | Owned owner -> Cap.is_valid cap && cap.cap_id = owner.cap_id
  | Lent_exclusive borrower -> Cap.is_valid cap && cap.cap_id = borrower.cap_id
  | Lent_shared _ -> false

let check_bounds ck r ~culprit ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length r.data then begin
    report ck ~kind:Out_of_bounds ~region:r.rid ~culprit
      (Printf.sprintf "range [%d, %d) beyond size %d" off (off + len)
         (Bytes.length r.data));
    false
  end
  else true

let read ck (cap : Cap.t) ~off ~len =
  let r = region_exn ck cap.region_id in
  (match r.state with
  | Freed -> report ck ~kind:Use_after_free ~region:r.rid ~culprit:cap.holder "read of freed region"
  | _ when cap_may_read r cap -> ()
  | _ ->
      report ck ~kind:Read_with_revoked_cap ~region:r.rid ~culprit:cap.holder
        (Fmt.str "read with %a while region is otherwise shared" Cap.pp cap));
  if check_bounds ck r ~culprit:cap.holder ~off ~len then Bytes.sub r.data off len
  else Bytes.create 0

let write ck (cap : Cap.t) ~off src =
  let r = region_exn ck cap.region_id in
  (match r.state with
  | Freed ->
      report ck ~kind:Use_after_free ~region:r.rid ~culprit:cap.holder "write to freed region"
  | Lent_shared _ ->
      report ck ~kind:Write_while_shared ~region:r.rid ~culprit:cap.holder
        (Fmt.str "write with %a during shared lend" Cap.pp cap)
  | _ when cap_may_write r cap -> ()
  | _ ->
      report ck ~kind:Write_without_rights ~region:r.rid ~culprit:cap.holder
        (Fmt.str "write with %a" Cap.pp cap));
  let len = Bytes.length src in
  if check_bounds ck r ~culprit:cap.holder ~off ~len then Bytes.blit src 0 r.data off len

let fill ck (cap : Cap.t) byte =
  let r = region_exn ck cap.region_id in
  write ck cap ~off:0 (Bytes.make (Bytes.length r.data) byte)

(* Model 1: ownership transfer ---------------------------------------- *)

let transfer ck (cap : Cap.t) ~to_ =
  let r = region_exn ck cap.region_id in
  (match r.state with
  | Owned owner when Cap.is_valid cap && cap.cap_id = owner.cap_id -> ()
  | Freed -> report ck ~kind:Use_after_free ~region:r.rid ~culprit:cap.holder "transfer of freed region"
  | _ ->
      report ck ~kind:Free_without_ownership ~region:r.rid ~culprit:cap.holder
        (Fmt.str "transfer with non-owning %a" Cap.pp cap));
  Cap.revoke cap;
  let fresh = Cap.make ~region_id:r.rid ~mode:Cap.Owner ~holder:to_ in
  (match r.state with Freed -> () | _ -> r.state <- Owned fresh);
  fresh

(* Model 2: exclusive lend --------------------------------------------- *)

let lend_exclusive ck (cap : Cap.t) ~to_ ~f =
  let r = region_exn ck cap.region_id in
  (match r.state with
  | Owned owner when Cap.is_valid cap && cap.cap_id = owner.cap_id -> ()
  | _ ->
      report ck ~kind:Write_without_rights ~region:r.rid ~culprit:cap.holder
        (Fmt.str "exclusive lend with %a" Cap.pp cap));
  let borrower = Cap.make ~region_id:r.rid ~mode:Cap.Exclusive_borrow ~holder:to_ in
  let saved = r.state in
  Cap.revoke cap;
  r.state <- Lent_exclusive borrower;
  let restore () =
    Cap.revoke borrower;
    Cap.restore cap;
    r.state <- (match saved with Owned _ -> Owned cap | other -> other)
  in
  match f borrower with
  | result ->
      restore ();
      result
  | exception exn ->
      restore ();
      raise exn

(* Model 3: shared lend ------------------------------------------------ *)

let lend_shared ck (cap : Cap.t) ~to_ ~f =
  let r = region_exn ck cap.region_id in
  (match r.state with
  | Owned owner when Cap.is_valid cap && cap.cap_id = owner.cap_id -> ()
  | _ ->
      report ck ~kind:Write_without_rights ~region:r.rid ~culprit:cap.holder
        (Fmt.str "shared lend with %a" Cap.pp cap));
  let readers =
    List.map (fun holder -> Cap.make ~region_id:r.rid ~mode:Cap.Shared_borrow ~holder) to_
  in
  let saved = r.state in
  r.state <- Lent_shared { owner = cap; readers };
  let restore () =
    List.iter Cap.revoke readers;
    r.state <- (match saved with Owned _ -> Owned cap | other -> other)
  in
  match f readers with
  | result ->
      restore ();
      result
  | exception exn ->
      restore ();
      raise exn

(* Free + leak accounting ---------------------------------------------- *)

let free ck (cap : Cap.t) =
  let r = region_exn ck cap.region_id in
  match r.state with
  | Freed -> report ck ~kind:Double_free ~region:r.rid ~culprit:cap.holder "double free"
  | Lent_exclusive _ | Lent_shared _ ->
      report ck ~kind:Free_while_lent ~region:r.rid ~culprit:cap.holder
        "free while region is lent out"
  | Owned owner ->
      if Cap.is_valid cap && cap.cap_id = owner.cap_id then begin
        Cap.revoke cap;
        r.state <- Freed
      end
      else
        report ck ~kind:Free_without_ownership ~region:r.rid ~culprit:cap.holder
          (Fmt.str "free with %a" Cap.pp cap)

let live_regions ck =
  Hashtbl.fold (fun _ r acc -> match r.state with Freed -> acc | _ -> r.rid :: acc) ck.regions []
  |> List.sort compare

let check_leaks ck =
  let live = live_regions ck in
  List.iter
    (fun rid ->
      let r = region_exn ck rid in
      report ck ~kind:Leak ~region:rid ~culprit:r.site "region never freed")
    live;
  live = []
