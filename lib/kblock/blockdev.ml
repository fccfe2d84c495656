(* Simulated block device with a volatile write cache.

   Writes land in a cache and reach the media only on [flush]; a crash
   loses an arbitrary subset of the cached writes (disks reorder), which
   is exactly the failure model journaling must defend against.
   [crash_media_states] enumerates the distinct post-crash media images so
   crash-safety checking can be exhaustive rather than sampled.

   The media is a two-level table of immutable blocks: a top table of
   chunks, each holding [chunk_len] block pointers.  [flush] swaps a
   block's pointer instead of blitting into it, so a crash image shares
   every block it did not change.  Both levels are copy-on-write: [image]
   and [of_image] share the table, and landing writes while an image may
   hold it copies the top table once and each touched chunk once — never
   the whole device's pointers. *)

type pending = {
  blkno : int;
  data : string;
}

(* A power of two, so a block's chunk and slot are a shift and a mask;
   64 pointers keep both levels of a 4096-block device minor-heap
   sized. *)
let chunk_bits = 6
let chunk_len = 1 lsl chunk_bits

type image = string array array (* chunk -> slot -> block; the last chunk may be partial *)

type t = {
  nblocks : int;
  block_size : int;
  mutable media : image;
  mutable base : image;
      (* the table last handed out by [image] or mounted by [of_image]:
         [media] owns a top table or chunk only when it is not
         physically the one in [base] *)
  mutable cache : pending list; (* newest first *)
  mutable reads : int;
  mutable writes : int;
  mutable flushes : int;
}

let image_nblocks img =
  match Array.length img with 0 -> 0 | n -> ((n - 1) * chunk_len) + Array.length img.(n - 1)

let init_image nblocks f =
  Array.init ((nblocks + chunk_len - 1) / chunk_len) (fun c ->
      let first = c * chunk_len in
      Array.init (min chunk_len (nblocks - first)) (fun i -> f (first + i)))

let get img blkno = img.(blkno lsr chunk_bits).(blkno land (chunk_len - 1))

(* Land one write on [top], a private copy of [base]'s top table: the
   block's chunk is copied first unless [top] already has its own. *)
let set ~base top blkno data =
  let c = blkno lsr chunk_bits in
  if top.(c) == base.(c) then top.(c) <- Array.copy base.(c);
  top.(c).(blkno land (chunk_len - 1)) <- data

let of_image ~block_size img =
  {
    nblocks = image_nblocks img;
    block_size;
    media = img;
    base = img;
    cache = [];
    reads = 0;
    writes = 0;
    flushes = 0;
  }

let create ~nblocks ~block_size =
  let zero = String.make block_size '\000' in
  of_image ~block_size (init_image nblocks (fun _ -> zero))

let nblocks dev = dev.nblocks
let block_size dev = dev.block_size
let reads dev = dev.reads
let writes dev = dev.writes
let flushes dev = dev.flushes
let pending_writes dev = List.length dev.cache

let in_range dev blkno = blkno >= 0 && blkno < dev.nblocks

let read dev blkno =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO
  else begin
    dev.reads <- dev.reads + 1;
    (* The device serves reads from its cache: latest write wins. *)
    match List.find_opt (fun p -> p.blkno = blkno) dev.cache with
    | Some p -> Ok (Bytes.of_string p.data)
    | None -> Ok (Bytes.of_string (get dev.media blkno))
  end

let write dev blkno data =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO
  else if Bytes.length data <> dev.block_size then Error Ksim.Errno.EINVAL
  else begin
    dev.writes <- dev.writes + 1;
    dev.cache <- { blkno; data = Bytes.to_string data } :: dev.cache;
    Ok ()
  end

(* [write] only caches whole blocks, so landing one is a pointer swap.
   Oldest first so that last-write-wins per block. *)
let flush dev =
  dev.flushes <- dev.flushes + 1;
  if dev.cache <> [] then begin
    if dev.media == dev.base then dev.media <- Array.copy dev.base;
    List.iter (fun p -> set ~base:dev.base dev.media p.blkno p.data) (List.rev dev.cache);
    dev.cache <- []
  end

let image dev =
  dev.base <- dev.media;
  dev.media

let patch img writes =
  if writes = [] then img
  else begin
    let top = Array.copy img in
    List.iter (fun (blkno, data) -> set ~base:img top blkno data) writes;
    top
  end

let to_media img = Array.init (image_nblocks img) (fun b -> Bytes.of_string (get img b))

let snapshot_media dev = to_media dev.media

let of_media ~block_size media =
  of_image ~block_size (init_image (Array.length media) (fun b -> Bytes.to_string media.(b)))

(* Enumerate distinct post-crash images: any subset of the cached writes
   may have reached the media.  With [n] pending writes there are up to
   [2^n] images; we enumerate them in a fixed order and stop at [limit].
   The no-surviving-writes image (bare media) always comes first, the
   all-survived image is always included when within limit.  Every
   candidate is the bare media patched with its subset, so only the
   blocks the cache touches are digested for dedup. *)
let crash_images dev ~limit =
  let media0 = image dev in
  let pendings = Array.of_list (List.rev dev.cache) (* oldest first *) in
  let n = Array.length pendings in
  let touched = List.sort_uniq compare (List.map (fun p -> p.blkno) dev.cache) in
  let total = if n >= 20 then max_int else 1 lsl n in
  let count = min limit total in
  let images = ref [] in
  let seen = Hashtbl.create 16 in
  let emit mask =
    let subset = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then subset := (pendings.(i).blkno, pendings.(i).data) :: !subset
    done;
    let media = patch media0 !subset in
    let digest = String.concat "" (List.map (fun b -> Digest.string (get media b)) touched) in
    if not (Hashtbl.mem seen digest) then begin
      Hashtbl.replace seen digest ();
      images := media :: !images
    end
  in
  if total <= count then
    for mask = 0 to total - 1 do
      emit mask
    done
  else begin
    (* Too many subsets: take the empty set, all prefixes (in-order
       partial flushes), the full set, then single-dropped-write subsets
       until the limit. *)
    emit 0;
    for k = 1 to n do
      emit ((1 lsl k) - 1)
    done;
    let full = (1 lsl n) - 1 in
    let i = ref 0 in
    while List.length !images < count && !i < n do
      emit (full lxor (1 lsl !i));
      incr i
    done
  end;
  let images = List.rev !images in
  List.filteri (fun i _ -> i < count) images

let crash_media_states dev ~limit = List.map to_media (crash_images dev ~limit)

let crash_states dev ~limit =
  List.map (of_image ~block_size:dev.block_size) (crash_images dev ~limit)

(* Lose all cached writes: the canonical single crash. *)
let crash dev = dev.cache <- []

let io dev : Io.t =
  {
    Io.nblocks = dev.nblocks;
    block_size = dev.block_size;
    read = read dev;
    write = write dev;
    flush =
      (fun () ->
        flush dev;
        Ok ());
    write_fua =
      (* The raw device flushes infallibly, so FUA is write + drain. *)
      Some
        (fun blkno data ->
          match write dev blkno data with
          | Ok () ->
              flush dev;
              Ok ()
          | Error _ as e -> e);
  }

let to_ops dev : Kspec.Axiom.block_ops =
  let fail_to_exn = function
    | Ok v -> v
    | Error e -> failwith ("blockdev: " ^ Ksim.Errno.to_string e)
  in
  {
    nblocks = dev.nblocks;
    block_size = dev.block_size;
    read = (fun blkno -> fail_to_exn (read dev blkno));
    write = (fun blkno data -> fail_to_exn (write dev blkno data));
    flush = (fun () -> flush dev);
  }
