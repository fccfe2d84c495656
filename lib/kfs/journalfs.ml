(* A block-based file system with a write-ahead journal: the ext4-shaped
   subject of the crash-safety experiment.

   On-disk layout (block numbers):

     0 .. jblocks-1              journal (see [Kblock.Journal])
     jblocks                     fs superblock
     jblocks+1 .. +ninodes       inode table, one inode per block
     jblocks+ninodes+1           data-area allocation bitmap
     everything after            data blocks

   Every operation mutates an in-memory mirror and stages only the blocks
   it changed into one journal transaction, so a crash either sees the
   whole operation or none of it.  An inode keeps its data blocks from op
   to op: growth is allocated and shrink is freed.  A file write or
   truncate stages the data blocks its changed bytes overlap; a directory
   edit or a new inode stages all of its content.  The inode block goes
   in only when the inode appears, disappears, or changes size or block
   list, and the bitmap block only when the allocation changed.  An op
   that changes no block does no I/O.  [mode = Direct] is the ablation:
   the same block writes issued in place with no journal and no
   ordering, i.e. the classic non-journaled Unix FS that the crash
   checker duly convicts.

   All media traffic goes through a [Kblock.Io.t] (by default the raw
   device), so the FS can be mounted over a flaky/resilient stack.  When
   an EIO survives to this layer — i.e. the retry budget below us is
   exhausted, a *persistent* failure — the op aborts (the journal rolls
   the partial transaction back) and the FS degrades ext4-style to
   errors=remount-ro: every subsequent mutation fails EROFS, and reads
   keep working from the mirror. *)

open Kspec

type mode =
  | Journaled
  | Direct

type mnode =
  | MFile of string
  | MDir of (string * int) list (* sorted by name *)

type geometry = {
  nblocks : int;
  block_size : int;
  jblocks : int;
  ninodes : int;
}

let default_geometry = { nblocks = 1024; block_size = 512; jblocks = 96; ninodes = 64 }

type t = {
  geo : geometry;
  dev : Kblock.Blockdev.t;
  io : Kblock.Io.t; (* all media traffic; may be a flaky/resilient stack *)
  journal : Kblock.Journal.t option; (* None in Direct mode *)
  mode : mode;
  group_commit : bool; (* accumulate ops into one tx until fsync *)
  mutable open_tx : Kblock.Journal.tx option;
  nodes : mnode option array; (* the mirror; index = ino *)
  bitmap : Bytes.t; (* one byte per data block: 0 free, 1 used *)
  blocks_of : int array array; (* data blocks backing each inode, in order *)
  mutable corrupt : bool; (* set when mount could not parse the disk *)
  mutable readonly : bool; (* errors=remount-ro tripped *)
}

let fs_magic = 0x46533231 (* "FS21" *)
let root_ino = 0

let sb_block geo = geo.jblocks
let inode_block geo ino = geo.jblocks + 1 + ino
let bitmap_block geo = geo.jblocks + 1 + geo.ninodes
let data_start geo = bitmap_block geo + 1
let data_blocks geo = geo.nblocks - data_start geo

let device t = t.dev
let journal_stats t = Option.map Kblock.Journal.stats t.journal
let is_corrupt t = t.corrupt
let is_readonly t = t.readonly

(* Graceful degradation: an EIO that survives to this layer means the
   retry budget below us (if any) is exhausted — a persistent media
   failure.  The op already aborted cleanly (journal head rolled back),
   so we pin the FS read-only rather than risk corrupting the disk with
   further writes. *)
let absorb t (r : 'a Ksim.Errno.r) : 'a Ksim.Errno.r =
  (match r with Error Ksim.Errno.EIO -> t.readonly <- true | Ok _ | Error _ -> ());
  r

(* Encoding ---------------------------------------------------------------- *)

let encode_dir entries =
  let buf = Buffer.create 64 in
  Buffer.add_uint16_le buf (List.length entries);
  List.iter
    (fun (name, ino) ->
      Buffer.add_uint16_le buf (String.length name);
      Buffer.add_string buf name;
      Buffer.add_int32_le buf (Int32.of_int ino))
    entries;
  Buffer.contents buf

exception Corrupt of string

(* An unsigned little-endian u32 of a media block, read in place. *)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xffff_ffff

let decode_dir s =
  let get_u16 off =
    if off + 2 > String.length s then raise (Corrupt "dir: truncated u16")
    else String.get_uint16_le s off
  in
  let count = if String.length s < 2 then raise (Corrupt "dir: no count") else get_u16 0 in
  let rec go i off acc =
    if i = count then List.rev acc
    else begin
      let len = get_u16 off in
      if off + 2 + len + 4 > String.length s then raise (Corrupt "dir: truncated entry");
      let name = String.sub s (off + 2) len in
      let ino = get_u32 s (off + 2 + len) in
      go (i + 1) (off + 2 + len + 4) ((name, ino) :: acc)
    end
  in
  go 0 2 []

let content_of_node = function
  | MFile content -> content
  | MDir entries -> encode_dir entries

(* [String.length (content_of_node n)], without encoding a directory. *)
let content_size = function
  | MFile content -> String.length content
  | MDir entries -> List.fold_left (fun len (name, _) -> len + 6 + String.length name) 2 entries

let encode_inode geo node ~size blocks =
  let buf = Bytes.make geo.block_size '\000' in
  (match node with
  | None -> ()
  | Some n ->
      Bytes.set buf 0 '\001';
      Bytes.set buf 1 (match n with MFile _ -> '\000' | MDir _ -> '\001');
      Kblock.Codec.put_u32 buf 2 size;
      Kblock.Codec.put_u16 buf 6 (Array.length blocks);
      Array.iteri (fun i blkno -> Kblock.Codec.put_u32 buf (8 + (4 * i)) blkno) blocks);
  buf

let max_direct geo = (geo.block_size - 8) / 4

(* An inode's direct pointers, and in Journaled mode what one
   transaction carries besides the inode and bitmap blocks: a write the
   journal would refuse is refused before the mirror changes. *)
let max_file_size mode geo =
  let blocks =
    match mode with
    | Direct -> max_direct geo
    | Journaled ->
        min (max_direct geo)
          (Kblock.Journal.tx_capacity ~block_size:geo.block_size ~jblocks:geo.jblocks - 2)
  in
  blocks * geo.block_size

(* Staging ------------------------------------------------------------------ *)

(* A pending batch of whole-block writes, applied either through the
   journal (one atomic transaction) or directly, depending on mode. *)
type batch = (int, bytes) Hashtbl.t

let batch_create () : batch = Hashtbl.create 16

let batch_put (b : batch) blkno data = Hashtbl.replace b blkno data

let stage_into_tx j tx blocks =
  List.fold_left
    (fun acc (blkno, data) ->
      match acc with
      | Error _ as e -> e
      | Ok () -> Kblock.Journal.tx_write j tx ~blkno data)
    (Ok ()) blocks

(** Close the accumulating transaction (group-commit mode): make
    everything staged so far durable.  A crash before this point legally
    loses the whole batch — still a prefix of the history.  Note [apply]
    itself carries no such contract: [Ok] from a mutating op only
    promises durability after [Fsync], the POSIX bargain, so Direct-mode
    staging writes may legally remain cache-volatile between syncs.
    @durable *)
let commit_open_tx t =
  match (t.journal, t.open_tx) with
  | Some j, Some tx ->
      t.open_tx <- None;
      (match Kblock.Journal.commit j tx with
      | Ok () -> Ok ()
      | Error Ksim.Errno.EOVERFLOW -> Error Ksim.Errno.ENOSPC
      | Error e -> Error e)
  | _, _ -> Ok ()

let batch_apply t (b : batch) =
  let blocks = Hashtbl.fold (fun blkno data acc -> (blkno, data) :: acc) b [] in
  let blocks = List.sort (fun (a, _) (b, _) -> compare a b) blocks in
  match t.journal with
  | _ when Hashtbl.length b = 0 -> Ok () (* an op that changed no block does no I/O *)
  | Some j when t.group_commit ->
      (* Accumulate into the open transaction; commit early only when the
         next batch would overflow the per-transaction capacity. *)
      let tx_writes tx = Kblock.Journal.tx_size tx in
      let need = List.length blocks in
      let ( let* ) = Result.bind in
      let* () =
        match t.open_tx with
        | Some tx when tx_writes tx + need > Kblock.Journal.max_tx_writes j ->
            commit_open_tx t
        | _ -> Ok ()
      in
      let tx =
        match t.open_tx with
        | Some tx -> tx
        | None ->
            let tx = Kblock.Journal.tx_begin j in
            t.open_tx <- Some tx;
            tx
      in
      stage_into_tx j tx blocks
  | Some j -> (
      (* One transaction per batch.  The tx is owned from tx_begin on:
         every path below must hand it back to commit or abort — a
         staging failure that just dropped it was an R10 leak. *)
      let tx = Kblock.Journal.tx_begin j in
      match stage_into_tx j tx blocks with
      | Error e ->
          Kblock.Journal.abort j tx;
          Error e
      | Ok () -> (
          match Kblock.Journal.commit j tx with
          | Ok () -> Ok ()
          | Error Ksim.Errno.EOVERFLOW -> Error Ksim.Errno.ENOSPC
          | Error e -> Error e))
  | None ->
      List.fold_left
        (fun acc (blkno, data) ->
          match acc with
          | Error _ as e -> e
          | Ok () -> t.io.Kblock.Io.write blkno data)
        (Ok ()) blocks

(* Allocation ---------------------------------------------------------------- *)

let alloc_blocks t n =
  let limit = data_blocks t.geo in
  let rec go i acc remaining =
    if remaining = 0 then Some (List.rev acc)
    else if i >= limit then None
    else if Bytes.get t.bitmap i = '\000' then go (i + 1) (i :: acc) (remaining - 1)
    else go (i + 1) acc remaining
  in
  match go 0 [] n with
  | None -> None
  | Some rel ->
      List.iter (fun i -> Bytes.set t.bitmap i '\001') rel;
      Some (Array.of_list (List.map (fun i -> data_start t.geo + i) rel))

let free_blocks t blocks =
  Array.iter (fun blkno -> Bytes.set t.bitmap (blkno - data_start t.geo) '\000') blocks

(* The changed bytes of a directory, a new inode or a removed one: all. *)
let whole = (0, max_int)

(* Stage inode [ino] once an op has set its mirror node, given its node
   before the op ([old]) and the range [lo, hi) of the new content's bytes
   that may differ from the disk.  The inode keeps its block numbers:
   only growth is allocated (first fit) and only shrink is freed.  Staged
   are the data blocks that overlap [lo, hi); the inode block when the
   inode appeared, disappeared, or changed size or block count; and the
   bitmap block when the allocation changed.  Returns false, having
   allocated nothing, when the content needs more blocks than an inode
   points to or than are free. *)
let stage_inode t (b : batch) ino ~old (lo, hi) =
  let bs = t.geo.block_size in
  let content = Option.map content_of_node t.nodes.(ino) in
  let size = match content with Some c -> String.length c | None -> 0 in
  let had = t.blocks_of.(ino) in
  let nhad = Array.length had and need = (size + bs - 1) / bs in
  let kept =
    if need = nhad then Some had
    else if need < nhad then begin
      free_blocks t (Array.sub had need (nhad - need));
      Some (Array.sub had 0 need)
    end
    else if need > max_direct t.geo then None
    else Option.map (Array.append had) (alloc_blocks t (need - nhad))
  in
  match kept with
  | None -> false
  | Some blocks ->
      t.blocks_of.(ino) <- blocks;
      (match content with
      | Some content when lo < hi ->
          for i = lo / bs to min (need - 1) ((hi - 1) / bs) do
            let chunk = Bytes.make bs '\000' in
            Bytes.blit_string content (i * bs) chunk 0 (min bs (size - (i * bs)));
            batch_put b blocks.(i) chunk
          done
      | Some _ | None -> ());
      let old_size = match old with Some n -> content_size n | None -> 0 in
      if Option.is_some old <> Option.is_some content || old_size <> size || need <> nhad then
        batch_put b (inode_block t.geo ino) (encode_inode t.geo t.nodes.(ino) ~size blocks);
      if need <> nhad then begin
        let bm = Bytes.make bs '\000' in
        Bytes.blit t.bitmap 0 bm 0 (min (Bytes.length t.bitmap) bs);
        batch_put b (bitmap_block t.geo) bm
      end;
      true

(* mkfs / mount --------------------------------------------------------------- *)

let write_sb t (b : batch) =
  let buf = Bytes.make t.geo.block_size '\000' in
  Kblock.Codec.put_u32 buf 0 fs_magic;
  Kblock.Codec.put_u32 buf 4 t.geo.ninodes;
  Kblock.Codec.put_u32 buf 8 t.geo.jblocks;
  batch_put b (sb_block t.geo) buf

let mkfs_on ?(geometry = default_geometry) ?(group_commit = false) ?(barriers = true) ?io
    mode dev =
  if data_blocks geometry < 8 then invalid_arg "Journalfs.mkfs_on: device too small";
  let io = match io with Some io -> io | None -> Kblock.Blockdev.io dev in
  let journal =
    match mode with
    | Journaled -> Some (Kblock.Journal.format ~barriers io ~jblocks:geometry.jblocks)
    | Direct -> None
  in
  let t =
    {
      geo = geometry;
      dev;
      io;
      journal;
      mode;
      group_commit;
      open_tx = None;
      nodes = Array.make geometry.ninodes None;
      bitmap = Bytes.make (data_blocks geometry) '\000';
      blocks_of = Array.make geometry.ninodes [||];
      corrupt = false;
      readonly = false;
    }
  in
  t.nodes.(root_ino) <- Some (MDir []);
  let b = batch_create () in
  write_sb t b;
  (* The device is freshly zeroed, so only the root inode (and the blocks
     it owns) needs to reach the disk. *)
  if not (stage_inode t b root_ino ~old:None whole) then
    invalid_arg "Journalfs.mkfs_on: no space for root";
  let fatal what = function
    | Ok () -> ()
    | Error e -> invalid_arg ("Journalfs.mkfs_on: " ^ what ^ ": " ^ Ksim.Errno.to_string e)
  in
  fatal "apply" (batch_apply t b);
  fatal "commit" (commit_open_tx t);
  (match mode with
  | Journaled -> fatal "checkpoint" (Kblock.Journal.checkpoint (Option.get journal))
  | Direct -> ());
  fatal "flush" (t.io.Kblock.Io.flush ());
  t

(* The media's own block: mount parses it in place and copies only what
   it keeps. *)
let read_block dev blkno =
  match Kblock.Blockdev.read dev blkno with
  | Ok data -> data
  | Error e -> raise (Corrupt ("read: " ^ Ksim.Errno.to_string e))

let mount ?(geometry = default_geometry) ?(group_commit = false) ?(barriers = true) ?io mode
    dev =
  let io = match io with Some io -> io | None -> Kblock.Blockdev.io dev in
  let journal =
    match mode with
    | Journaled -> Some (Kblock.Journal.recover ~barriers io ~jblocks:geometry.jblocks)
    | Direct -> None
  in
  let t =
    {
      geo = geometry;
      dev;
      io;
      journal;
      mode;
      group_commit;
      open_tx = None;
      nodes = Array.make geometry.ninodes None;
      bitmap = Bytes.make (data_blocks geometry) '\000';
      blocks_of = Array.make geometry.ninodes [||];
      corrupt = false;
      readonly = false;
    }
  in
  (try
     let sb = read_block dev (sb_block geometry) in
     if get_u32 sb 0 <> fs_magic then raise (Corrupt "bad fs magic");
     let bs = geometry.block_size in
     for ino = 0 to geometry.ninodes - 1 do
       let buf = read_block dev (inode_block geometry ino) in
       if buf.[0] = '\001' then begin
         let kind = buf.[1] in
         let size = get_u32 buf 2 in
         let nblk = String.get_uint16_le buf 6 in
         if nblk > max_direct geometry then raise (Corrupt "inode block count");
         let blocks = Array.init nblk (fun i -> get_u32 buf (8 + (4 * i))) in
         Array.iter
           (fun blkno ->
             if blkno < data_start geometry || blkno >= geometry.nblocks then
               raise (Corrupt "block pointer out of range"))
           blocks;
         if size > nblk * bs then raise (Corrupt "inode size beyond blocks");
         (* One buffer of the file's size, each block's bytes below it
            blitted straight from the media. *)
         let content = Bytes.create size in
         Array.iteri
           (fun i blkno ->
             let data = read_block dev blkno in
             let off = i * bs in
             if off < size then Bytes.blit_string data 0 content off (min bs (size - off)))
           blocks;
         let content = Ksim.Frame.Buf.freeze content in
         t.blocks_of.(ino) <- blocks;
         Array.iter
           (fun blkno -> Bytes.set t.bitmap (blkno - data_start geometry) '\001')
           blocks;
         t.nodes.(ino) <-
           Some (if kind = '\001' then MDir (decode_dir content) else MFile content)
       end
     done;
     if t.nodes.(root_ino) = None then raise (Corrupt "no root inode")
   with Corrupt _ ->
     t.corrupt <- true;
     Array.fill t.nodes 0 geometry.ninodes None);
  t

(* Mirror navigation (same shape as the other memfs variants) ---------------- *)

let node t ino = if ino >= 0 && ino < t.geo.ninodes then t.nodes.(ino) else None

(* A directory entry's inode, by a [String.equal] scan rather than
   polymorphic compare. *)
let rec find_entry name = function
  | [] -> None
  | (n, ino) :: rest -> if String.equal n name then Some ino else find_entry name rest

let rec walk t ino = function
  | [] -> Some ino
  | comp :: rest -> (
      match node t ino with
      | Some (MDir entries) -> (
          match find_entry comp entries with Some child -> walk t child rest | None -> None)
      | Some (MFile _) | None -> None)

let lookup t path = walk t root_ino path
let lookup_node t path = Option.bind (lookup t path) (node t)

let is_dir t path =
  match lookup_node t path with Some (MDir _) -> true | Some (MFile _) | None -> false

let parent_dir t path =
  match Fs_spec.parent path with
  | None -> Error Ksim.Errno.EINVAL
  | Some par -> (
      match lookup t par with
      | Some ino -> (
          match node t ino with
          | Some (MDir entries) -> Ok (ino, entries)
          | Some (MFile _) | None -> Error Ksim.Errno.ENOENT)
      | None -> Error Ksim.Errno.ENOENT)

let basename_exn path =
  match Fs_spec.basename path with Some name -> name | None -> assert false

let rec assoc_set name value = function
  | [] -> [ (name, value) ]
  | (n, v) :: rest ->
      let c = String.compare name n in
      if c < 0 then (name, value) :: (n, v) :: rest
      else if c = 0 then (name, value) :: rest
      else (n, v) :: assoc_set name value rest

let assoc_remove name entries = List.filter (fun (n, _) -> not (String.equal n name)) entries

let free_ino t =
  let rec go ino =
    if ino >= t.geo.ninodes then None
    else if t.nodes.(ino) = None then Some ino
    else go (ino + 1)
  in
  go 0

(* Commit one op's mirror edits, [(ino, new node, changed bytes)] in
   staging order: apply them, stage what each changed (see
   [stage_inode]), then apply the batch atomically.  When staging runs
   out of data blocks, or in Journaled mode the batch is larger than one
   transaction may be, the op changes nothing and fails ENOSPC before any
   I/O: the edited inodes get back their nodes, their blocks and those
   blocks' bitmap bits, and the blocks staging allocated are free again.
   A persistent EIO aborts the transaction (journal head rolled back,
   home area untouched) and degrades the FS to read-only; the mirror may
   now be ahead of the disk, which is safe precisely because nothing
   further will be written. *)
let commit_inodes t edits =
  let saved = List.map (fun (ino, _, _) -> (ino, t.nodes.(ino), t.blocks_of.(ino))) edits in
  List.iter (fun (ino, node, _) -> t.nodes.(ino) <- node) edits;
  let b = batch_create () in
  let staged =
    List.for_all2
      (fun (ino, _, changed) (_, old, _) -> stage_inode t b ino ~old changed)
      edits saved
  in
  let fits =
    match t.journal with
    | Some j -> Hashtbl.length b <= Kblock.Journal.max_tx_writes j
    | None -> true
  in
  if staged && fits then
    match absorb t (batch_apply t b) with
    | Ok () -> Ok Fs_spec.Unit
    | Error e -> Error e
  else begin
    List.iter (fun (ino, _, _) -> free_blocks t t.blocks_of.(ino)) saved;
    List.iter
      (fun (ino, node, blocks) ->
        t.nodes.(ino) <- node;
        t.blocks_of.(ino) <- blocks;
        Array.iter (fun blkno -> Bytes.set t.bitmap (blkno - data_start t.geo) '\001') blocks)
      saved;
    Error Ksim.Errno.ENOSPC
  end

(* Operations ------------------------------------------------------------------ *)

let add_node t path make_node =
  match parent_dir t path with
  | Error e -> Error e
  | Ok (parent_ino, entries) -> (
      let base = basename_exn path in
      if Option.is_some (find_entry base entries) then Error Ksim.Errno.EEXIST
      else
        match free_ino t with
        | None -> Error Ksim.Errno.ENOSPC
        | Some ino ->
            commit_inodes t
              [
                (ino, Some (make_node ()), whole);
                (parent_ino, Some (MDir (assoc_set base ino entries)), whole);
              ])

(* [f content] is the file's new content and the range [lo, hi) of its
   bytes that may differ from [content]. *)
let update_file t path f =
  match lookup t path with
  | Some ino -> (
      match node t ino with
      | Some (MFile content) ->
          let content', lo, hi = f content in
          if String.length content' > max_file_size t.mode t.geo then Error Ksim.Errno.ENOSPC
          else commit_inodes t [ (ino, Some (MFile content'), (lo, hi)) ]
      | Some (MDir _) -> Error Ksim.Errno.EISDIR
      | None -> Error Ksim.Errno.ENOENT)
  | None -> if is_dir t path then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT

let rec collect_subtree t ino acc =
  match node t ino with
  | Some (MDir entries) ->
      List.fold_left (fun acc (_, child) -> collect_subtree t child acc) (ino :: acc) entries
  | Some (MFile _) -> ino :: acc
  | None -> acc

let mutating : Fs_spec.op -> bool = function
  | Create _ | Mkdir _ | Write _ | Truncate _ | Unlink _ | Rmdir _ | Rename _ -> true
  | Read _ | Readdir _ | Stat _ | Fsync -> false

let apply t (op : Fs_spec.op) : Fs_spec.result =
  if t.corrupt then Error Ksim.Errno.EIO
  else if t.readonly && mutating op then Error Ksim.Errno.EROFS
  else
    match op with
    | Create path -> add_node t path (fun () -> MFile "")
    | Mkdir path -> add_node t path (fun () -> MDir [])
    | Write { file; off; data } ->
        if off < 0 then Error Ksim.Errno.EINVAL
        else
          update_file t file (fun content ->
              ( Fs_spec.write_at content ~off ~data,
                min off (String.length content),
                off + String.length data ))
    | Read { file; off; len } -> (
        if off < 0 || len < 0 then Error Ksim.Errno.EINVAL
        else
          match lookup_node t file with
          | Some (MFile content) -> Ok (Fs_spec.Data (Fs_spec.read_at content ~off ~len))
          | Some (MDir _) -> Error Ksim.Errno.EISDIR
          | None -> if is_dir t file then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
    | Truncate (path, size) ->
        if size < 0 then Error Ksim.Errno.EINVAL
        else
          update_file t path (fun content ->
              let len = String.length content in
              ( (if len >= size then String.sub content 0 size
                 else content ^ String.make (size - len) '\000'),
                min len size,
                max len size ))
    | Unlink path -> (
        match lookup_node t path with
        | Some (MFile _) -> (
            match parent_dir t path with
            | Error e -> Error e
            | Ok (parent_ino, entries) ->
                let ino = match lookup t path with Some i -> i | None -> assert false in
                commit_inodes t
                  [
                    (ino, None, whole);
                    (parent_ino, Some (MDir (assoc_remove (basename_exn path) entries)), whole);
                  ])
        | Some (MDir _) -> Error Ksim.Errno.EISDIR
        | None -> if path = [] then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
    | Rmdir [] -> Error Ksim.Errno.EBUSY
    | Rmdir path -> (
        match lookup_node t path with
        | Some (MDir entries) ->
            if entries <> [] then Error Ksim.Errno.ENOTEMPTY
            else (
              match parent_dir t path with
              | Error e -> Error e
              | Ok (parent_ino, pentries) ->
                  let ino = match lookup t path with Some i -> i | None -> assert false in
                  commit_inodes t
                    [
                      (ino, None, whole);
                      ( parent_ino,
                        Some (MDir (assoc_remove (basename_exn path) pentries)),
                        whole );
                    ])
        | Some (MFile _) -> Error Ksim.Errno.ENOTDIR
        | None -> Error Ksim.Errno.ENOENT)
    | Rename ([], _) -> Error Ksim.Errno.ENOENT
    | Rename (src, dst) -> (
        match lookup t src with
        | None -> Error Ksim.Errno.ENOENT
        | Some src_ino -> (
            if dst = [] then Error Ksim.Errno.EINVAL
            else if Fs_spec.is_prefix src dst && src <> dst then Error Ksim.Errno.EINVAL
            else
              match parent_dir t dst with
              | Error e -> Error e
              | Ok (dst_parent, dst_entries) -> (
                  let clash =
                    match (node t src_ino, lookup_node t dst) with
                    | _, None -> Ok ()
                    | Some (MFile _), Some (MFile _) -> Ok ()
                    | Some (MFile _), Some (MDir _) -> Error Ksim.Errno.EISDIR
                    | Some (MDir _), Some (MFile _) -> Error Ksim.Errno.ENOTDIR
                    | Some (MDir _), Some (MDir d) ->
                        if d = [] then Ok () else Error Ksim.Errno.ENOTEMPTY
                    | None, _ -> Error Ksim.Errno.ENOENT
                  in
                  match clash with
                  | Error e -> Error e
                  | Ok () ->
                      if src = dst then Ok Fs_spec.Unit
                      else
                        match parent_dir t src with
                        | Error e -> Error e
                        | Ok (src_parent, src_entries) ->
                            let dropped =
                              match lookup t dst with
                              | Some old_ino when old_ino <> src_ino ->
                                  collect_subtree t old_ino []
                              | Some _ | None -> []
                            in
                            let src_entries = assoc_remove (basename_exn src) src_entries in
                            (* One edit for a parent that is both source and
                               destination, carrying both changes. *)
                            let dst_entries =
                              if src_parent = dst_parent then src_entries else dst_entries
                            in
                            let dst_edit =
                              ( dst_parent,
                                Some (MDir (assoc_set (basename_exn dst) src_ino dst_entries)),
                                whole )
                            in
                            let edits =
                              List.map (fun i -> (i, None, whole)) dropped
                              @
                              if src_parent = dst_parent then [ dst_edit ]
                              else [ (src_parent, Some (MDir src_entries), whole); dst_edit ]
                            in
                            commit_inodes t
                              (List.sort (fun (a, _, _) (b, _, _) -> compare a b) edits))))
    | Readdir path -> (
        match lookup_node t path with
        | Some (MDir entries) -> Ok (Fs_spec.Names (List.map fst entries))
        | Some (MFile _) -> Error Ksim.Errno.ENOTDIR
        | None -> Error Ksim.Errno.ENOENT)
    | Stat path -> (
        match lookup_node t path with
        | Some (MFile content) -> Ok (Fs_spec.Attr { kind = `File; size = String.length content })
        | Some (MDir _) -> Ok (Fs_spec.Attr { kind = `Dir; size = 0 })
        | None -> Error Ksim.Errno.ENOENT)
    | Fsync ->
        if t.readonly then Ok Fs_spec.Unit (* nothing dirty will ever flush *)
        else (
          match absorb t (commit_open_tx t) with
          | Error e -> Error e
          | Ok () -> (
              let r =
                match t.journal with
                | Some j -> Kblock.Journal.checkpoint j
                | None -> t.io.Kblock.Io.flush ()
              in
              match absorb t r with Ok () -> Ok Fs_spec.Unit | Error e -> Error e))

(* Depth first over directories kept sorted by name: path order. *)
let interpret t : Fs_spec.bindings =
  let rec go ino rel acc =
    match node t ino with
    | Some (MDir entries) ->
        let acc = if rel = [] then acc else (rel, Fs_spec.Dir) :: acc in
        List.fold_left (fun acc (name, child) -> go child (rel @ [ name ]) acc) acc entries
    | Some (MFile content) -> (rel, Fs_spec.File content) :: acc
    | None -> acc
  in
  List.rev (go root_ino [] [])

(* Mountable adapters ---------------------------------------------------------- *)

module Journaled_fs = struct
  type nonrec fs = t

  let fs_name = "journalfs"
  let stage = 2
  let mkfs () = mkfs_on Journaled (Kblock.Blockdev.create ~nblocks:default_geometry.nblocks ~block_size:default_geometry.block_size)
  let apply = apply
  let interpret = interpret
end

module Journaled_group_fs = struct
  type nonrec fs = t

  let fs_name = "journalfs+group-commit"
  let stage = 2

  let mkfs () =
    mkfs_on ~group_commit:true Journaled
      (Kblock.Blockdev.create ~nblocks:default_geometry.nblocks
         ~block_size:default_geometry.block_size)

  let apply = apply
  let interpret = interpret
end
