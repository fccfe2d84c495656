(* The buffer cache and its infamous [buffer_head] state flags.

   The paper's functional-correctness case study: buffer_head "includes 16
   state flags ... set independently, resulting in many possible
   combinations of states.  Not all of the combinations are valid."  We
   reproduce the 16 flags, encode the validity rules explicitly, and let
   [validate] report which rule a given flag combination breaks — turning
   the folklore English comments into a checkable specification. *)

type flag =
  | Uptodate
  | Dirty
  | Lock
  | Req
  | Mapped
  | New
  | Async_read
  | Async_write
  | Delay
  | Boundary
  | Write_io_error
  | Unwritten
  | Quiet
  | Meta
  | Prio
  | Defer_completion

let all_flags =
  [ Uptodate; Dirty; Lock; Req; Mapped; New; Async_read; Async_write; Delay; Boundary;
    Write_io_error; Unwritten; Quiet; Meta; Prio; Defer_completion ]

let flag_bit = function
  | Uptodate -> 0
  | Dirty -> 1
  | Lock -> 2
  | Req -> 3
  | Mapped -> 4
  | New -> 5
  | Async_read -> 6
  | Async_write -> 7
  | Delay -> 8
  | Boundary -> 9
  | Write_io_error -> 10
  | Unwritten -> 11
  | Quiet -> 12
  | Meta -> 13
  | Prio -> 14
  | Defer_completion -> 15

module Flags = struct
  type t = int

  let empty = 0
  let mem flag flags = flags land (1 lsl flag_bit flag) <> 0
  let add flag flags = flags lor (1 lsl flag_bit flag)
  let remove flag flags = flags land lnot (1 lsl flag_bit flag)
  let of_list = List.fold_left (fun acc f -> add f acc) empty
  let to_list flags = List.filter (fun f -> mem f flags) all_flags
end

(* The validity rules.  Each is a named implication over the flag set. *)
type rule = {
  rule_name : string;
  violated_by : Flags.t -> bool;
}

let rules =
  let implies a b flags = not (Flags.mem a flags) || Flags.mem b flags in
  let excludes a b flags = not (Flags.mem a flags && Flags.mem b flags) in
  [
    { rule_name = "dirty-implies-uptodate"; violated_by = (fun f -> not (implies Dirty Uptodate f)) };
    { rule_name = "dirty-implies-mapped"; violated_by = (fun f -> not (implies Dirty Mapped f)) };
    { rule_name = "new-implies-mapped"; violated_by = (fun f -> not (implies New Mapped f)) };
    { rule_name = "async-read-under-lock"; violated_by = (fun f -> not (implies Async_read Lock f)) };
    { rule_name = "async-write-under-lock"; violated_by = (fun f -> not (implies Async_write Lock f)) };
    { rule_name = "async-read-excludes-write"; violated_by = (fun f -> not (excludes Async_read Async_write f)) };
    { rule_name = "unwritten-excludes-dirty"; violated_by = (fun f -> not (excludes Unwritten Dirty f)) };
    { rule_name = "delay-excludes-mapped"; violated_by = (fun f -> not (excludes Delay Mapped f)) };
    { rule_name = "write-error-excludes-dirty"; violated_by = (fun f -> not (excludes Write_io_error Dirty f)) };
    { rule_name = "boundary-implies-mapped"; violated_by = (fun f -> not (implies Boundary Mapped f)) };
    { rule_name = "meta-implies-mapped"; violated_by = (fun f -> not (implies Meta Mapped f)) };
    { rule_name = "prio-implies-meta"; violated_by = (fun f -> not (implies Prio Meta f)) };
  ]

let validate flags =
  List.filter_map (fun r -> if r.violated_by flags then Some r.rule_name else None) rules

(* The hot-path check: one branch-free boolean over the bitmask, used on
   every buffer transition.  [validate] (above) names the broken rules and
   is only consulted once a violation is already known. *)
let is_valid flags =
  let has f = Flags.mem f flags in
  let implies a b = (not a) || b in
  implies (has Dirty) (has Uptodate && has Mapped)
  && implies (has New) (has Mapped)
  && implies (has Async_read) (has Lock && not (has Async_write))
  && implies (has Async_write) (has Lock)
  && implies (has Unwritten) (not (has Dirty))
  && implies (has Delay) (not (has Mapped))
  && implies (has Write_io_error) (not (has Dirty))
  && implies (has Boundary) (has Mapped)
  && implies (has Meta) (has Mapped)
  && implies (has Prio) (has Meta)

(* Buffer heads and the cache ------------------------------------------- *)

type bh = {
  blkno : int;
  mutable flags : Flags.t;
  mutable data : bytes;
  mutable refcount : int;
}

exception Invalid_state of { blkno : int; broken : string list }

type t = {
  dev : Blockdev.t;
  table : (int, bh) Hashtbl.t;
  mutable state_checks : int;
  check_states : bool;
}

let create ?(check_states = true) dev =
  { dev; table = Hashtbl.create 64; state_checks = 0; check_states }

let check cache bh =
  if cache.check_states then begin
    cache.state_checks <- cache.state_checks + 1;
    if not (is_valid bh.flags) then
      raise (Invalid_state { blkno = bh.blkno; broken = validate bh.flags })
  end

let getblk cache blkno =
  match Hashtbl.find_opt cache.table blkno with
  | Some bh ->
      bh.refcount <- bh.refcount + 1;
      bh
  | None ->
      let bh =
        {
          blkno;
          flags = Flags.of_list [ Mapped ];
          data = Bytes.make (Blockdev.block_size cache.dev) '\000';
          refcount = 1;
        }
      in
      Hashtbl.replace cache.table blkno bh;
      bh

let bread cache blkno =
  let bh = getblk cache blkno in
  if not (Flags.mem Uptodate bh.flags) then begin
    match Blockdev.read cache.dev blkno with
    | Ok data ->
        bh.data <- Bytes.of_string data;
        bh.flags <- Flags.add Uptodate bh.flags;
        check cache bh
    | Error _ ->
        bh.flags <- Flags.add Write_io_error bh.flags;
        check cache bh
  end;
  bh

let mark_dirty cache bh =
  if not (Flags.mem Uptodate bh.flags) then
    (* Setting Dirty on a non-uptodate buffer is precisely the kind of
       invalid combination the rules catch. *)
    bh.flags <- Flags.add Dirty bh.flags
  else bh.flags <- Flags.add Dirty (Flags.remove Write_io_error bh.flags);
  check cache bh

let set_data cache bh data =
  if Bytes.length data <> Blockdev.block_size cache.dev then invalid_arg "Buffer_head.set_data";
  bh.data <- Bytes.copy data;
  bh.flags <- Flags.add Uptodate bh.flags;
  mark_dirty cache bh

let brelse bh = bh.refcount <- max 0 (bh.refcount - 1)

let submit_write cache bh =
  check cache bh;
  if not (Flags.mem Dirty bh.flags) then Ok ()
  else begin
    bh.flags <- Flags.add Lock (Flags.add Async_write bh.flags);
    let result = Blockdev.write cache.dev bh.blkno bh.data in
    (match result with
    | Ok () -> bh.flags <- Flags.remove Dirty bh.flags
    | Error _ ->
        bh.flags <- Flags.add Write_io_error (Flags.remove Dirty bh.flags));
    bh.flags <- Flags.remove Lock (Flags.remove Async_write bh.flags);
    check cache bh;
    result
  end

let sync cache =
  let dirty =
    Hashtbl.fold (fun _ bh acc -> if Flags.mem Dirty bh.flags then bh :: acc else acc)
      cache.table []
    |> List.sort (fun a b -> compare a.blkno b.blkno)
  in
  List.iter (fun bh -> ignore (submit_write cache bh)) dirty;
  Blockdev.flush cache.dev

let dirty_count cache =
  Hashtbl.fold (fun _ bh n -> if Flags.mem Dirty bh.flags then n + 1 else n) cache.table 0

let cached_count cache = Hashtbl.length cache.table
let state_checks cache = cache.state_checks

let drop cache =
  (* Forget clean buffers; model memory pressure. *)
  let doomed =
    Hashtbl.fold
      (fun blkno bh acc ->
        if (not (Flags.mem Dirty bh.flags)) && bh.refcount = 0 then blkno :: acc else acc)
      cache.table []
  in
  List.iter (Hashtbl.remove cache.table) doomed;
  List.length doomed
