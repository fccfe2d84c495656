(* The volatile write-back cache layer: barrier semantics made explicit.

   [write] acknowledges into a bounded in-cache dirty set without
   touching the base; when the set overflows, a seeded writeback evicts a
   victim to the base, where it lands on the media.  [flush] is the full
   barrier: it drains the dirty set oldest-first, flushes the base, and
   only then is everything written before the flush durable.  The cache
   is the one volatile layer: a [Blockdev] under it keeps every write it
   is given.

   Crash surface.  The cache keeps an ordered log of every write since
   the last *completed* flush (the open "barrier epoch").  Once a crash
   checker attaches a [disk], it also keeps the closed epochs since the
   disk last folded them away ([take_durable]); a bare cache drops each
   epoch as it closes, so nothing it acked outlives the next flush.  A
   crash anywhere in that window lands between two barriers: everything
   before some completed flush is durable, and of the epoch that was open
   at the moment of the crash an arbitrary subset — in arbitrary order —
   may have reached media.  [crash_frames] materializes exactly those
   (durable-prefix, volatile-set) pairs, and [crash_residues] samples
   write sequences from them under [~limit]: exhaustive subsets (plus
   permutations) for small volatile sets, and the structured corners —
   nothing, everything, prefixes, suffixes, single-dropped — plus seeded
   subset/shuffle draws otherwise.  Suffixes are the signature of
   reordering: the late writes landed, the early ones did not, which is
   precisely the image a missing barrier exposes.  Crash is therefore no
   longer a prefix of the write sequence.

   FUA writes bypass the dirty set (durable on ack, via the base's FUA
   path) and are applied first within their frame when residues are
   built — a mild over-approximation if a later volatile write to the
   same block also lands.

   Barrier-discipline audit (ALICE-style).  Reading back a block whose
   newest content is still unflushed taints it; issuing a write to a
   different block while taints are outstanding — i.e. deriving new
   content from data that might not survive a crash, without an
   intervening barrier — records an ordering violation ([audit]) and,
   while the runtime export is on, a "wcache" record for klint's
   static/runtime reconciliation.

   Failpoints (registered disabled when a registry is supplied):
     <name>.flush-dropped      flush lies: returns Ok without draining
                               or closing the epoch (a lying drive)
     <name>.writeback-reorder  capacity eviction picks a seeded random
                               victim instead of the oldest *)

type entry = {
  wseq : int;
  blkno : int;
  data : string;
  fua : bool;
}

type frame = {
  durable : entry list; (* oldest first; definitely on media *)
  volatile : entry list; (* oldest first; any subset, any order *)
}

type violation = {
  v_blkno : int; (* the block read back while unflushed *)
  v_read_seq : int; (* wseq of the unflushed content that was read *)
  v_write_blkno : int; (* the dependent write issued without a barrier *)
  v_write_seq : int;
}

type failpoints = {
  fp : Ksim.Failpoint.t;
  flush_dropped : Ksim.Failpoint.site;
  writeback_reorder : Ksim.Failpoint.site;
}

type t = {
  name : string;
  base : Io.t;
  capacity : int;
  failpoints : failpoints option;
  rng : Ksim.Rng.t; (* writeback victim selection *)
  seed : int;
  mutable dirty : entry list; (* oldest first, at most one per blkno *)
  mutable epoch : entry list; (* newest first; the open barrier epoch *)
  mutable windowed : bool; (* a [disk] is attached: [flush] keeps closed epochs *)
  mutable history : entry list list; (* closed epochs, newest first *)
  mutable next_seq : int;
  tainted : (int, int) Hashtbl.t; (* blkno -> wseq read back unflushed *)
  mutable nviolations : int;
  mutable violations : violation list; (* newest first, bounded *)
  mutable cache_hits : int;
  mutable flushes : int;
  mutable flush_drops : int;
  mutable writebacks : int;
  mutable reordered_writebacks : int;
  mutable fua_writes : int;
}

(* Every violation a cache recorded while the runtime export was on,
   newest first: one "wcache" record each (cache, blkno, read_seq,
   write_blkno, write_seq).  Records, never caches: a cache pins its base
   device, and a crash sweep builds a cache per image. *)
let exported : (string * violation) list ref = ref []

let () =
  Ksim.Export.register "wcache" (fun () ->
      List.rev_map
        (fun (name, v) ->
          name
          :: List.map string_of_int [ v.v_blkno; v.v_read_seq; v.v_write_blkno; v.v_write_seq ])
        !exported)

let create ?(name = "wcache") ?(capacity = 32) ?fp ?(seed = 0) base =
  if capacity < 1 then invalid_arg "Wcache.create: capacity";
  let failpoints =
    Option.map
      (fun fp ->
        let site kind = Ksim.Failpoint.register fp (name ^ "." ^ kind) in
        let flush_dropped = site "flush-dropped" in
        { fp; flush_dropped; writeback_reorder = site "writeback-reorder" })
      fp
  in
  {
    name;
    base;
    capacity;
    failpoints;
    rng = Ksim.Rng.of_int (seed + Hashtbl.hash name);
    seed;
    dirty = [];
    epoch = [];
    windowed = false;
    history = [];
    next_seq = 0;
    tainted = Hashtbl.create 16;
    nviolations = 0;
    violations = [];
    cache_hits = 0;
    flushes = 0;
    flush_drops = 0;
    writebacks = 0;
    reordered_writebacks = 0;
    fua_writes = 0;
  }

let dirty_blocks t = List.length t.dirty
let unflushed_writes t = List.length t.epoch

let fires t site =
  match t.failpoints with None -> false | Some f -> Ksim.Failpoint.fire f.fp (site f)

let in_range t blkno = blkno >= 0 && blkno < t.base.Io.nblocks

(* One capacity eviction: write the victim back to the base.  It stays in
   the open epoch — the barrier has not happened — so crash residues may
   still drop it.  Under the writeback-reorder failpoint the victim is a
   seeded random dirty entry rather than the oldest, modelling a cache
   that destages out of order. *)
let evict_one t =
  match t.dirty with
  | [] -> ()
  | oldest :: _ ->
      let reorder = fires t (fun f -> f.writeback_reorder) in
      let victim =
        if reorder && List.length t.dirty > 1 then Ksim.Rng.pick t.rng t.dirty
        else oldest
      in
      (match t.base.Io.write victim.blkno (Bytes.of_string victim.data) with
      | Ok () ->
          t.dirty <- List.filter (fun e -> e.wseq <> victim.wseq) t.dirty;
          t.writebacks <- t.writebacks + 1;
          if victim.wseq <> oldest.wseq then
            t.reordered_writebacks <- t.reordered_writebacks + 1
      | Error _ ->
          (* Leave the victim dirty (temporarily over capacity); a later
             write or the next flush retries. *)
          ())

let record_violation t ~v_blkno ~v_read_seq ~v_write_blkno ~v_write_seq =
  t.nviolations <- t.nviolations + 1;
  if List.length t.violations < 64 then begin
    let v = { v_blkno; v_read_seq; v_write_blkno; v_write_seq } in
    t.violations <- v :: t.violations;
    if Ksim.Export.on () then exported := (t.name, v) :: !exported
  end

(* A write while tainted reads are outstanding: the new content may
   depend on data that a crash can still lose — ALICE's ordering bug.
   Overwriting the tainted block itself is not a dependency. *)
let check_ordering t blkno wseq =
  if Hashtbl.length t.tainted > 0 then begin
    let flagged =
      Hashtbl.fold
        (fun b read_seq acc -> if b <> blkno then (b, read_seq) :: acc else acc)
        t.tainted []
      |> List.sort compare
    in
    List.iter
      (fun (b, read_seq) ->
        record_violation t ~v_blkno:b ~v_read_seq:read_seq ~v_write_blkno:blkno
          ~v_write_seq:wseq;
        Hashtbl.remove t.tainted b)
      flagged
  end

let write t blkno data =
  if not (in_range t blkno) then Error Ksim.Errno.EIO
  else if Bytes.length data <> t.base.Io.block_size then Error Ksim.Errno.EINVAL
  else begin
    let e = { wseq = t.next_seq; blkno; data = Bytes.to_string data; fua = false } in
    t.next_seq <- t.next_seq + 1;
    check_ordering t blkno e.wseq;
    t.epoch <- e :: t.epoch;
    t.dirty <- List.filter (fun d -> d.blkno <> blkno) t.dirty @ [ e ];
    if List.length t.dirty > t.capacity then evict_one t;
    Ok ()
  end

let write_fua t blkno data =
  if not (in_range t blkno) then Error Ksim.Errno.EIO
  else if Bytes.length data <> t.base.Io.block_size then Error Ksim.Errno.EINVAL
  else
    match Io.fua t.base blkno data with
    | Error _ as e -> e
    | Ok () ->
        t.fua_writes <- t.fua_writes + 1;
        let e = { wseq = t.next_seq; blkno; data = Bytes.to_string data; fua = true } in
        t.next_seq <- t.next_seq + 1;
        check_ordering t blkno e.wseq;
        t.epoch <- e :: t.epoch;
        (* durable now: anything cached for this block is superseded *)
        t.dirty <- List.filter (fun d -> d.blkno <> blkno) t.dirty;
        Ok ()

(* Is [blkno]'s newest content still unflushed (in the open epoch)? *)
let newest_unflushed t blkno =
  List.find_opt (fun e -> e.blkno = blkno && not e.fua) t.epoch

let taint t blkno =
  match newest_unflushed t blkno with
  | Some e -> Hashtbl.replace t.tainted blkno e.wseq
  | None -> ()

let read t blkno =
  if not (in_range t blkno) then Error Ksim.Errno.EIO
  else begin
    (* [dirty] holds at most one entry per block: no need to search it
       newest first. *)
    match List.find_opt (fun e -> e.blkno = blkno) t.dirty with
    | Some e ->
        t.cache_hits <- t.cache_hits + 1;
        taint t blkno;
        Ok (Bytes.of_string e.data)
    | None -> (
        match t.base.Io.read blkno with
        | Ok b ->
            (* Written back but not yet barriered: still unflushed. *)
            taint t blkno;
            Ok b
        | Error _ as e -> e)
  end

let flush t =
  t.flushes <- t.flushes + 1;
  if fires t (fun f -> f.flush_dropped) then begin
    (* The lying drive: ack the barrier without doing the work.  Nothing
       is lost yet — the dirty set and the open epoch survive — but
       nothing became durable either. *)
    t.flush_drops <- t.flush_drops + 1;
    Ok ()
  end
  else begin
    (* Oldest first, one pass: a failed writeback leaves it and everything
       after it dirty. *)
    let rec drain () =
      match t.dirty with
      | [] -> Ok ()
      | e :: rest -> (
          match t.base.Io.write e.blkno (Bytes.of_string e.data) with
          | Ok () ->
              t.dirty <- rest;
              t.writebacks <- t.writebacks + 1;
              drain ()
          | Error _ as err -> err)
    in
    match drain () with
    | Error _ as e -> e
    | Ok () -> (
        match t.base.Io.flush () with
        | Error _ as e -> e
        | Ok () ->
            (* Barrier complete: the open epoch closes, and only an
               attached [disk] needs it kept. *)
            if t.windowed && t.epoch <> [] then
              t.history <- List.rev t.epoch :: t.history;
            t.epoch <- [];
            Hashtbl.reset t.tainted;
            Ok ())
  end

(* The canonical single crash: every write still in the dirty set is
   gone; what writeback already handed to the base stays there. *)
let crash t =
  t.dirty <- [];
  t.epoch <- [];
  t.history <- [];
  Hashtbl.reset t.tainted

let take_durable t =
  let d = List.concat (List.rev t.history) in
  t.history <- [];
  d

let patch img entries = Blockdev.patch img (List.map (fun e -> (e.blkno, e.data)) entries)

let crash_frames t =
  let rec go durable = function
    | [] -> [ { durable = List.rev durable; volatile = List.rev t.epoch } ]
    | ep :: rest ->
        { durable = List.rev durable; volatile = ep }
        :: go (List.rev_append ep durable) rest
  in
  go [] (List.rev t.history)

(* Candidate landing orders for one frame's volatile set, best corners
   first.  [n <= 4]: every subset in write order, plus every permutation
   of the full set when [n <= 3].  Larger sets: nothing, everything,
   prefixes, suffixes (the reordering signature), single-dropped, then
   seeded subset/shuffle draws. *)
let volatile_candidates rng ~want vol =
  let vol = List.filter (fun e -> not e.fua) vol in
  let n = List.length vol in
  if n = 0 then [ [] ]
  else if n <= 4 then begin
    let arr = Array.of_list vol in
    let subsets = ref [] in
    for mask = 0 to (1 lsl n) - 1 do
      let s = ref [] in
      for i = n - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then s := arr.(i) :: !s
      done;
      subsets := !s :: !subsets
    done;
    let perms =
      if n >= 2 && n <= 3 then
        (* all reorderings of the full set, identity excluded *)
        let rec permutations = function
          | [] -> [ [] ]
          | l ->
              List.concat_map
                (fun x ->
                  List.map
                    (fun p -> x :: p)
                    (permutations (List.filter (fun y -> y.wseq <> x.wseq) l)))
                l
        in
        List.filter (fun p -> p <> vol) (permutations vol)
      else []
    in
    List.rev !subsets @ perms
  end
  else begin
    let take k = List.filteri (fun i _ -> i < k) vol in
    let drop k = List.filteri (fun i _ -> i >= k) vol in
    let prefixes = List.init (n - 1) (fun i -> take (i + 1)) in
    let suffixes = List.init (n - 1) (fun i -> drop (i + 1)) in
    let dropped_one =
      List.init n (fun i -> List.filteri (fun j _ -> j <> i) vol)
    in
    let seeded =
      List.init (max 0 want) (fun _ ->
          let kept = List.filter (fun _ -> Ksim.Rng.bool rng) vol in
          Ksim.Rng.shuffle rng kept)
    in
    (* Suffixes and single-dropped first: late-writes-without-early is
       the image only a missing barrier can expose, while in-order
       prefixes are the tame states any crash model already covers. *)
    ([] :: vol :: suffixes) @ dropped_one @ prefixes @ seeded
  end

(* Digest of the final per-block content a residue produces, for dedup. *)
let residue_digest durable_digest residue =
  let tbl = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace tbl e.blkno e.data) residue;
  let rows =
    Hashtbl.fold (fun b d acc -> (b, d) :: acc) tbl [] |> List.sort compare
  in
  Digest.string
    (durable_digest ^ String.concat "|"
       (List.map (fun (b, d) -> string_of_int b ^ ":" ^ Digest.string d) rows))

let crash_residues t ~limit =
  if limit <= 0 then []
  else begin
    let rng = Ksim.Rng.of_int (t.seed + (31 * t.next_seq) + 17) in
    let frames = crash_frames t in
    let per_frame =
      List.map
        (fun f ->
          let fuas = List.filter (fun e -> e.fua) f.volatile in
          let durable_digest =
            Digest.string
              (String.concat ";"
                 (List.map (fun e -> string_of_int e.wseq) f.durable))
          in
          let cands = volatile_candidates rng ~want:limit f.volatile in
          (f, fuas, durable_digest, Array.of_list cands))
        frames
    in
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    let nout = ref 0 in
    let idx = ref 0 in
    let progress = ref true in
    (* Round-robin across frames so early corners of every epoch are
       sampled before deep seeded draws of any one epoch. *)
    while !nout < limit && !progress do
      progress := false;
      List.iter
        (fun (f, fuas, ddig, cands) ->
          if !nout < limit && !idx < Array.length cands then begin
            progress := true;
            let residue = f.durable @ fuas @ cands.(!idx) in
            let dig = residue_digest ddig cands.(!idx) in
            if not (Hashtbl.mem seen (dig, ddig)) then begin
              Hashtbl.add seen (dig, ddig) ();
              out := residue :: !out;
              incr nout
            end
          end)
        per_frame;
      incr idx
    done;
    List.rev !out
  end

(* The one path from residue to device.  Settling folds the closed
   epochs into [settled] and lands them on [media] only when the next
   crash devices are built, so settling before an fsync never copies the
   block table. *)
type disk = {
  dev : Blockdev.t;
  cache : t;
  mutable media : Blockdev.image; (* the media as of the last landing *)
  settled : (int, string) Hashtbl.t; (* blkno -> newest durable write since *)
}

let disk dev cache =
  cache.windowed <- true;
  ignore (take_durable cache : entry list);
  { dev; cache; media = Blockdev.image dev; settled = Hashtbl.create 64 }

let settle d =
  List.iter (fun e -> Hashtbl.replace d.settled e.blkno e.data) (take_durable d.cache)

let crash_devices d ~limit =
  if Hashtbl.length d.settled > 0 then begin
    let writes = Hashtbl.fold (fun b data acc -> (b, data) :: acc) d.settled [] in
    d.media <- Blockdev.patch d.media writes;
    Hashtbl.reset d.settled
  end;
  let block_size = Blockdev.block_size d.dev in
  let devs =
    List.map
      (fun residue -> Blockdev.of_image ~block_size (patch d.media residue))
      (crash_residues d.cache ~limit)
  in
  settle d;
  devs

let audit t = List.rev t.violations
let ordering_violations t = t.nviolations
let cache_hits t = t.cache_hits
let flushes t = t.flushes
let flush_drops t = t.flush_drops
let writebacks t = t.writebacks
let reordered_writebacks t = t.reordered_writebacks
let fua_writes t = t.fua_writes

let io t : Io.t =
  {
    Io.nblocks = t.base.Io.nblocks;
    block_size = t.base.Io.block_size;
    read = read t;
    write = write t;
    flush = (fun () -> flush t);
    write_fua = Some (write_fua t);
  }
