(* A jbd2-style write-ahead journal.

   On-disk layout (within the owning device):

     block 0                : journal superblock (magic, checkpointed seq)
     blocks 1 .. jblocks-1  : journal records
     blocks jblocks ..      : the client's home area

   A transaction is recorded as

     [D seq count home0..home_{n-1}] [data]*n [C seq checksum]

   The commit protocol flushes the descriptor and data before the commit
   record, and the commit record before any home-location write, so a
   crash can only observe (a) no trace of the transaction or (b) a fully
   replayable one — never a torn in-place update.  Checkpointing applies
   committed transactions to their home locations and advances the
   checkpointed sequence number in the superblock.

   The journal talks to the disk through an [Io.t], so the same code runs
   over the raw device or over a flaky/resilient stack.  I/O failures
   abort cleanly instead of corrupting state:

   - a failed [commit] rolls the journal head back and leaves the
     transaction uncommitted — recovery ignores the partial records
     (no commit record, or a checksum mismatch, marks them dead);
   - a failed [checkpoint] keeps every pending transaction pending and
     does not advance the checkpointed sequence, so a later retry (or
     crash recovery) replays them; home-area writes are idempotent. *)

let magic = 0x4a4c3231 (* "JL21" *)

type record_kind = Descriptor | Commit

type stats = {
  mutable aborted_commits : int;
  mutable checkpoints : int;
  mutable replayed_txs : int;
  mutable journal_block_writes : int;
}

type t = {
  io : Io.t;
  jblocks : int;
  barriers : bool; (* false = the seeded missing-barrier mutant *)
  mutable head : int; (* next free journal block; 1-based *)
  mutable next_seq : int;
  mutable checkpointed : int; (* highest seq applied to home locations *)
  mutable pending : tx list; (* committed, not yet checkpointed; oldest first *)
  stats : stats;
}

and tx = {
  mutable seq : int; (* assigned at commit *)
  mutable writes : (int * bytes) list; (* newest first; home blkno, data *)
  mutable committed : bool;
}

let ( let* ) = Result.bind

let data_start j = j.jblocks
let stats j = j.stats

let block_size j = j.io.Io.block_size
let nblocks j = j.io.Io.nblocks

let fresh_stats () =
  {
    aborted_commits = 0;
    checkpoints = 0;
    replayed_txs = 0;
    journal_block_writes = 0;
  }

(* Superblock ------------------------------------------------------------ *)

let write_jsb j =
  let buf = Bytes.make (block_size j) '\000' in
  Codec.put_u32 buf 0 magic;
  Codec.put_u32 buf 4 j.checkpointed;
  Codec.put_u32 buf 8 j.jblocks;
  j.io.Io.write 0 buf

let read_jsb (io : Io.t) =
  match io.Io.read 0 with
  | Error _ -> None
  | Ok buf ->
      if Codec.get_u32 buf 0 = magic then Some (Codec.get_u32 buf 4, Codec.get_u32 buf 8)
      else None

(* Record encoding -------------------------------------------------------- *)

let encode_descriptor j ~seq homes =
  let buf = Bytes.make (block_size j) '\000' in
  Bytes.set buf 0 'D';
  Codec.put_u32 buf 1 seq;
  Codec.put_u32 buf 5 (List.length homes);
  List.iteri (fun i home -> Codec.put_u32 buf (9 + (4 * i)) home) homes;
  buf

let encode_commit j ~seq ~checksum =
  let buf = Bytes.make (block_size j) '\000' in
  Bytes.set buf 0 'C';
  Codec.put_u32 buf 1 seq;
  Codec.put_u32 buf 5 checksum;
  buf

let decode_record buf =
  if Bytes.length buf < 9 then None
  else
    match Bytes.get buf 0 with
    | 'D' ->
        let seq = Codec.get_u32 buf 1 in
        let count = Codec.get_u32 buf 5 in
        if count < 0 || count > (Bytes.length buf - 9) / 4 then None
        else
          let homes = List.init count (fun i -> Codec.get_u32 buf (9 + (4 * i))) in
          Some (Descriptor, seq, homes, 0)
    | 'C' -> Some (Commit, Codec.get_u32 buf 1, [], Codec.get_u32 buf 5)
    | _ -> None

(* One descriptor block names every home block of a transaction, and an
   empty journal (head at 1) must hold descriptor + data + commit. *)
let tx_capacity ~block_size ~jblocks = min ((block_size - 9) / 4) (jblocks - 3)
let max_tx_writes j = tx_capacity ~block_size:(block_size j) ~jblocks:j.jblocks

(* Formatting and opening ------------------------------------------------- *)

let format ?(barriers = true) (io : Io.t) ~jblocks =
  if jblocks < 4 || jblocks >= io.Io.nblocks then invalid_arg "Journal.format";
  let j =
    {
      io;
      jblocks;
      barriers;
      head = 1;
      next_seq = 1;
      checkpointed = 0;
      pending = [];
      stats = fresh_stats ();
    }
  in
  (match write_jsb j with
  | Ok () -> ()
  | Error e -> failwith ("journal format: " ^ Ksim.Errno.to_string e));
  (* Zero the journal area so stale records cannot be mistaken for live. *)
  let zero = Bytes.make (block_size j) '\000' in
  for blkno = 1 to jblocks - 1 do
    match io.Io.write blkno zero with
    | Ok () -> ()
    | Error e -> failwith ("journal format: " ^ Ksim.Errno.to_string e)
  done;
  (match io.Io.flush () with
  | Ok () -> ()
  | Error e -> failwith ("journal format: " ^ Ksim.Errno.to_string e));
  j

(* Transactions ------------------------------------------------------------ *)

(** Open a transaction.  Purely in-memory until {!commit}.  The caller
    must hand it to {!commit} or {!abort}.
    @returns_owned *)
let tx_begin (_ : t) = { seq = 0; writes = []; committed = false }

(** Discard an uncommitted transaction: drop its staged writes and poison
    it against a later {!commit}.  Nothing reached the device, so there
    is nothing to roll back.
    @consumes: tx *)
let abort (_ : t) tx =
  if tx.committed then invalid_arg "Journal.abort: already committed";
  tx.writes <- [];
  tx.committed <- true (* poisoned: commit refuses committed txs *)

let tx_write j tx ~blkno data =
  if blkno < j.jblocks || blkno >= nblocks j then Error Ksim.Errno.EINVAL
  else if Bytes.length data <> block_size j then Error Ksim.Errno.EINVAL
  else begin
    (* Coalesce rewrites of the same block within a transaction. *)
    tx.writes <- (blkno, Bytes.copy data) :: List.remove_assoc blkno tx.writes;
    Ok ()
  end

let journal_write j blkno data =
  j.stats.journal_block_writes <- j.stats.journal_block_writes + 1;
  j.io.Io.write blkno data

let space_needed tx = 2 + List.length tx.writes

let rec write_all f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      write_all f rest

(* Apply committed-but-unapplied transactions to their home locations.  On
   failure nothing is forgotten: pending stays, the checkpointed sequence
   does not advance, and a later retry (or recovery replay) redoes the
   idempotent home writes. *)
let checkpoint j =
  match j.pending with
  | [] -> Ok ()
  | pending ->
      let* () =
        write_all
          (fun tx -> write_all (fun (blkno, data) -> j.io.Io.write blkno data) (List.rev tx.writes))
          pending
      in
      (* Home writes durable before the superblock advances past them —
         the mutant elides this barrier, so a crash can keep the advanced
         superblock while losing home writes it vouches for. *)
      let* () = if j.barriers then j.io.Io.flush () else Ok () in
      let saved = j.checkpointed in
      j.checkpointed <- List.fold_left (fun m tx -> max m tx.seq) saved pending;
      let finish =
        let* () = write_jsb j in
        j.io.Io.flush ()
      in
      (match finish with
      | Ok () ->
          j.pending <- [];
          j.head <- 1;
          j.stats.checkpoints <- j.stats.checkpoints + 1;
          Ok ()
      | Error e ->
          (* Home writes are durable but the superblock may not be; keep
             everything pending so replay covers us either way. *)
          j.checkpointed <- saved;
          Error e)

let commit j tx =
  if tx.committed then invalid_arg "Journal.commit: already committed";
  if List.length tx.writes > max_tx_writes j then Error Ksim.Errno.EOVERFLOW
  else
    (* Fits an empty journal, so it fits once a checkpoint empties it. *)
    let* () = if j.head + space_needed tx > j.jblocks then checkpoint j else Ok () in
    let start_head = j.head in
    let seq = j.next_seq in
    let writes = List.rev tx.writes (* oldest first *) in
    let homes = List.map fst writes in
    let datas = List.map snd writes in
    let attempt =
      let* () = journal_write j j.head (encode_descriptor j ~seq homes) in
      j.head <- j.head + 1;
      let* () =
        write_all
          (fun data ->
            let* () = journal_write j j.head data in
            j.head <- j.head + 1;
            Ok ())
          datas
      in
      (* Descriptor and data durable before the commit record...  (the
         missing-barrier mutant lets the commit record flush with its
         data blocks instead) *)
      let* () = if j.barriers then j.io.Io.flush () else Ok () in
      let* () = journal_write j j.head (encode_commit j ~seq ~checksum:(Codec.checksum_many datas)) in
      j.head <- j.head + 1;
      (* ...and the commit record durable before any home write. *)
      j.io.Io.flush ()
    in
    match attempt with
    | Ok () ->
        j.next_seq <- j.next_seq + 1;
        tx.seq <- seq;
        tx.committed <- true;
        j.pending <- j.pending @ [ tx ];
        Ok ()
    | Error e ->
        (* Abort: roll the head back over the partial records.  With no
           commit record (or a checksum mismatch) recovery treats them as
           dead, and the next transaction overwrites them. *)
        j.head <- start_head;
        j.stats.aborted_commits <- j.stats.aborted_commits + 1;
        Error e

(* Recovery ----------------------------------------------------------------

   Recovery and format run over a *reliable* view of the device (mount
   happens after the fault window; a flaky mount-path is a different
   experiment), so I/O errors here are fatal rather than gracefully
   degraded. *)

let scan_committed (io : Io.t) ~jblocks ~checkpointed =
  let read blkno =
    match io.Io.read blkno with
    | Ok buf -> buf
    | Error e -> failwith ("journal scan: " ^ Ksim.Errno.to_string e)
  in
  let rec scan blkno acc =
    if blkno >= jblocks then List.rev acc
    else
      match decode_record (read blkno) with
      | Some (Descriptor, seq, homes, _) ->
          let count = List.length homes in
          if blkno + count + 1 >= jblocks then List.rev acc
          else
            let datas = List.init count (fun i -> read (blkno + 1 + i)) in
            let commit_blk = read (blkno + 1 + count) in
            (match decode_record commit_blk with
            | Some (Commit, cseq, _, checksum)
              when cseq = seq && checksum = Codec.checksum_many datas ->
                let tx_writes = List.combine homes datas in
                let acc = if seq > checkpointed then (seq, tx_writes) :: acc else acc in
                scan (blkno + count + 2) acc
            | _ ->
                (* Torn or missing commit: this and anything after is dead. *)
                List.rev acc)
      | Some (Commit, _, _, _) | None -> List.rev acc
  in
  scan 1 []

let recover ?(barriers = true) (io : Io.t) ~jblocks =
  let checkpointed, jb =
    match read_jsb io with
    | Some (cp, jb) -> (cp, jb)
    | None -> failwith "Journal.recover: no journal superblock"
  in
  if jb <> jblocks then failwith "Journal.recover: journal size mismatch";
  let committed = scan_committed io ~jblocks ~checkpointed in
  let j =
    {
      io;
      jblocks;
      barriers;
      head = 1;
      next_seq = 1 + List.fold_left (fun m (seq, _) -> max m seq) checkpointed committed;
      checkpointed;
      pending = [];
      stats = fresh_stats ();
    }
  in
  let fatal = function
    | Ok () -> ()
    | Error e -> failwith ("journal replay: " ^ Ksim.Errno.to_string e)
  in
  List.iter
    (fun (seq, writes) ->
      j.stats.replayed_txs <- j.stats.replayed_txs + 1;
      List.iter (fun (blkno, data) -> fatal (io.Io.write blkno data)) writes;
      j.checkpointed <- max j.checkpointed seq)
    committed;
  fatal (io.Io.flush ());
  fatal (write_jsb j);
  fatal (io.Io.flush ());
  j

let tx_size tx = List.length tx.writes
let pending_txs j = List.length j.pending
