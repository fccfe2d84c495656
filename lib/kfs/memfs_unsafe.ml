(* The "C-style" in-memory file system: roadmap step 0.

   Deliberately written with the unsafe idioms the paper catalogues:

   - file content lives in manually managed [Ksim.Kmem] cells;
   - [write_begin]/[write_end] pass fs-private state as a [Ksim.Dyn]
     void pointer the callee casts back (§4.2);
   - lookup-style functions return error pointers the caller must
     remember to IS_ERR-check (§4.2);
   - [i_size] on the shared inode is updated sometimes with and sometimes
     without [i_lock] (§4.3).

   [faults] switches latent bugs of each class on; with all faults off the
   module is functionally correct, which is what lets the fault-injection
   experiment measure *which roadmap step would have prevented what*
   rather than comparing a broken module to a working one. *)

open Kspec

type faults = {
  mutable use_after_free : bool;  (* unlink frees content but leaves the dentry *)
  mutable double_free : bool;  (* unlink frees content twice *)
  mutable memory_leak : bool;  (* unlink forgets to free content *)
  mutable wrong_cast : bool;  (* write_end casts private data to the wrong type *)
  mutable missing_errptr_check : bool;  (* read dereferences lookup without IS_ERR *)
  mutable skip_i_lock : bool;  (* i_size updated without holding i_lock *)
  mutable off_by_one : bool;  (* read returns one byte short: a semantic bug *)
}

let no_faults () =
  {
    use_after_free = false;
    double_free = false;
    memory_leak = false;
    wrong_cast = false;
    missing_errptr_check = false;
    skip_i_lock = false;
    off_by_one = false;
  }

type file_data = {
  content : string Ksim.Kmem.ptr;
  vnode : Kvfs.Vtypes.inode;
}

type dir_data = { entries : (string, int) Hashtbl.t }

type node =
  | File of file_data
  | Dir of dir_data

type fs = {
  heap : Ksim.Kmem.t;
  inodes : (int, node) Hashtbl.t;
  mutable next_ino : int;
  faults : faults;
  (* The superblock lock, ext4's s_lock shape: serializes whole-file
     mutations (write_end, truncate) and nests *outside* i_lock, the
     ordering both lockdep at runtime and kracer statically must agree
     on. *)
  s_lock : Ksim.Klock.t;
  (* Dangling pointers parked by the use-after-free fault: the code keeps
     using them, as C code would. *)
  mutable dangling : (int * string Ksim.Kmem.ptr) list;
}

let fs_name = "memfs_unsafe"

(* The void-pointer keys for write_begin/write_end private data.  The
   wrong_cast fault casts to [bogus_key], which models a file system
   receiving another component's private data (CVE-2020-12351 shape). *)
type write_ctx = {
  w_ino : int;
  w_off : int;
}

let write_ctx_key : write_ctx Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"memfs_unsafe.write_ctx"

type bogus = { b_cookie : int }

let bogus_key : bogus Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"memfs_unsafe.bogus"

let root_ino = 0

let mkfs_with_faults faults =
  let heap = Ksim.Kmem.create ~name:"memfs_unsafe" () in
  let inodes = Hashtbl.create 64 in
  Hashtbl.replace inodes root_ino (Dir { entries = Hashtbl.create 8 });
  let s_lock = Ksim.Klock.create ~lockdep:Ksim.Lockdep.global ~name:"s_lock" () in
  { heap; inodes; next_ino = 1; faults; s_lock; dangling = [] }

let mkfs () = mkfs_with_faults (no_faults ())

let heap fs = fs.heap

let node fs ino = Hashtbl.find_opt fs.inodes ino

let rec walk fs ino = function
  | [] -> Some ino
  | comp :: rest -> (
      match node fs ino with
      | Some (Dir d) -> (
          match Hashtbl.find_opt d.entries comp with
          | Some child -> walk fs child rest
          | None -> None)
      | Some (File _) | None -> None)

let lookup_ino fs path = walk fs root_ino path
let lookup_node fs path = Option.bind (lookup_ino fs path) (node fs)

let is_dir fs path =
  match lookup_node fs path with Some (Dir _) -> true | Some (File _) | None -> false

let parent_entries fs path =
  match Fs_spec.parent path with
  | None -> Error Ksim.Errno.EINVAL
  | Some par -> (
      match lookup_node fs par with
      | Some (Dir d) -> Ok d.entries
      | Some (File _) | None -> Error Ksim.Errno.ENOENT)

let basename_exn path =
  match Fs_spec.basename path with Some name -> name | None -> assert false

(* Update i_size the way sloppy C code does: usually under i_lock (via
   the annotated accessor, which discharges its @must_hold), but on the
   fast path (fault enabled) without it — the Guarded cell records the
   race at runtime, and kracer's R6 flags the same line statically. *)
let set_size fs (vnode : Kvfs.Vtypes.inode) size =
  if fs.faults.skip_i_lock then Ksim.Klock.Guarded.set vnode.i_size size
  else
    Ksim.Klock.with_lock vnode.i_lock (fun () -> Kvfs.Vtypes.set_size_locked vnode size)

let file_content fs (f : file_data) =
  ignore fs;
  Ksim.Kmem.read f.content

let set_file_content fs (f : file_data) data =
  Ksim.Kmem.write f.content data;
  set_size fs f.vnode (String.length data)

(* Legacy interface -------------------------------------------------------- *)

let err e = Ksim.Dyn.Errptr.of_err e

let inode_key : int Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"memfs_unsafe.ino"

let lookup fs path_str =
  let path = Fs_spec.path_of_string path_str in
  match lookup_ino fs path with
  | Some ino -> Ksim.Dyn.Errptr.of_ptr (Ksim.Dyn.inject inode_key ino)
  | None -> err Ksim.Errno.ENOENT

let create fs path_str ~kind =
  let path = Fs_spec.path_of_string path_str in
  match parent_entries fs path with
  | Error e -> err e
  | Ok entries ->
      if Hashtbl.mem entries (basename_exn path) then err Ksim.Errno.EEXIST
      else begin
        let ino = fs.next_ino in
        fs.next_ino <- ino + 1;
        let n =
          match kind with
          | Kvfs.Vtypes.Regular ->
              let vnode = Kvfs.Vtypes.make_inode () in
              File { content = Ksim.Kmem.alloc fs.heap ~site:path_str ""; vnode }
          | Kvfs.Vtypes.Directory -> Dir { entries = Hashtbl.create 8 }
        in
        Hashtbl.replace fs.inodes ino n;
        Hashtbl.replace entries (basename_exn path) ino;
        Ksim.Dyn.Errptr.of_ptr (Ksim.Dyn.inject inode_key ino)
      end

let write_begin fs path_str ~off =
  let path = Fs_spec.path_of_string path_str in
  if off < 0 then err Ksim.Errno.EINVAL
  else
    match lookup_node fs path with
    | Some (File _) -> (
        match lookup_ino fs path with
        | Some ino -> Ksim.Dyn.Errptr.of_ptr (Ksim.Dyn.inject write_ctx_key { w_ino = ino; w_off = off })
        | None -> err Ksim.Errno.ENOENT)
    | Some (Dir _) -> err Ksim.Errno.EISDIR
    | None -> if is_dir fs path then err Ksim.Errno.EISDIR else err Ksim.Errno.ENOENT

let write_end fs private_data ~data =
  (* The C idiom: cast the void* back and trust it.  With the wrong_cast
     fault the cast targets another component's type — Type_confusion. *)
  let ctx =
    if fs.faults.wrong_cast then begin
      let b = Ksim.Dyn.cast_exn bogus_key private_data in
      { w_ino = b.b_cookie; w_off = 0 }
    end
    else Ksim.Dyn.cast_exn write_ctx_key private_data
  in
  match node fs ctx.w_ino with
  | Some (File f) ->
      (* s_lock outside, i_lock (inside set_file_content) within: the
         nesting the lock-order graphs must both contain. *)
      Ksim.Klock.with_lock fs.s_lock (fun () ->
          let content = file_content fs f in
          set_file_content fs f (Fs_spec.write_at content ~off:ctx.w_off ~data);
          String.length data)
  | Some (Dir _) -> -Ksim.Errno.to_code Ksim.Errno.EISDIR
  | None -> -Ksim.Errno.to_code Ksim.Errno.ENOENT

let read fs path_str ~off ~len =
  if off < 0 || len < 0 then Error (-Ksim.Errno.to_code Ksim.Errno.EINVAL)
  else begin
    let handle = lookup fs path_str in
    (* The classic bug: use the returned pointer without IS_ERR. *)
    let handle_dyn =
      if fs.faults.missing_errptr_check then Ksim.Dyn.Errptr.deref handle
      else
        match handle with
        | Ksim.Dyn.Errptr.Err _ -> Ksim.Dyn.null
        | Ksim.Dyn.Errptr.Ptr p -> p
    in
    if Ksim.Dyn.is_null handle_dyn then
      let path = Fs_spec.path_of_string path_str in
      if is_dir fs path then Error (-Ksim.Errno.to_code Ksim.Errno.EISDIR)
      else Error (-Ksim.Errno.to_code Ksim.Errno.ENOENT)
    else
      let ino = Ksim.Dyn.cast_exn inode_key handle_dyn in
      match node fs ino with
      | Some (File f) ->
          let content = file_content fs f in
          let result = Fs_spec.read_at content ~off ~len in
          let result =
            if fs.faults.off_by_one && String.length result > 0 then
              String.sub result 0 (String.length result - 1)
            else result
          in
          Ok result
      | Some (Dir _) -> Error (-Ksim.Errno.to_code Ksim.Errno.EISDIR)
      | None -> Error (-Ksim.Errno.to_code Ksim.Errno.ENOENT)
  end

let truncate fs path_str size =
  let path = Fs_spec.path_of_string path_str in
  if size < 0 then -Ksim.Errno.to_code Ksim.Errno.EINVAL
  else
    match lookup_node fs path with
    | Some (File f) ->
        Ksim.Klock.with_lock fs.s_lock (fun () ->
            let content = file_content fs f in
            let content' =
              if String.length content >= size then String.sub content 0 size
              else content ^ String.make (size - String.length content) '\000'
            in
            set_file_content fs f content';
            0)
    | Some (Dir _) -> -Ksim.Errno.to_code Ksim.Errno.EISDIR
    | None ->
        if is_dir fs path then -Ksim.Errno.to_code Ksim.Errno.EISDIR
        else -Ksim.Errno.to_code Ksim.Errno.ENOENT

let unlink fs path_str =
  let path = Fs_spec.path_of_string path_str in
  match lookup_node fs path with
  | Some (File f) -> (
      match parent_entries fs path with
      | Error e -> -Ksim.Errno.to_code e
      | Ok entries ->
          let ino = match lookup_ino fs path with Some i -> i | None -> assert false in
          if fs.faults.memory_leak then begin
            (* Forget the kfree. *)
            Hashtbl.remove entries (basename_exn path);
            Hashtbl.remove fs.inodes ino
          end
          else if fs.faults.use_after_free then begin
            (* Free the content but keep the dentry: the next read walks
               straight into freed memory. *)
            Ksim.Kmem.free f.content;
            fs.dangling <- (ino, f.content) :: fs.dangling
          end
          else if fs.faults.double_free then begin
            Ksim.Kmem.free f.content;
            Ksim.Kmem.free f.content;
            Hashtbl.remove entries (basename_exn path);
            Hashtbl.remove fs.inodes ino
          end
          else begin
            Ksim.Kmem.free f.content;
            Hashtbl.remove entries (basename_exn path);
            Hashtbl.remove fs.inodes ino
          end;
          0)
  | Some (Dir _) -> -Ksim.Errno.to_code Ksim.Errno.EISDIR
  | None ->
      if is_dir fs path then -Ksim.Errno.to_code Ksim.Errno.EISDIR
      else -Ksim.Errno.to_code Ksim.Errno.ENOENT

let rmdir fs path_str =
  let path = Fs_spec.path_of_string path_str in
  if path = [] then -Ksim.Errno.to_code Ksim.Errno.EBUSY
  else
    match lookup_node fs path with
    | Some (Dir d) ->
        if Hashtbl.length d.entries > 0 then -Ksim.Errno.to_code Ksim.Errno.ENOTEMPTY
        else (
          match parent_entries fs path with
          | Error e -> -Ksim.Errno.to_code e
          | Ok entries ->
              (match lookup_ino fs path with
              | Some ino -> Hashtbl.remove fs.inodes ino
              | None -> ());
              Hashtbl.remove entries (basename_exn path);
              0)
    | Some (File _) -> -Ksim.Errno.to_code Ksim.Errno.ENOTDIR
    | None -> -Ksim.Errno.to_code Ksim.Errno.ENOENT

let rec free_subtree fs ino =
  match node fs ino with
  | Some (Dir d) ->
      Hashtbl.iter (fun _ child -> free_subtree fs child) d.entries;
      Hashtbl.remove fs.inodes ino
  | Some (File f) ->
      if Ksim.Kmem.is_live f.content then Ksim.Kmem.free f.content;
      Hashtbl.remove fs.inodes ino
  | None -> ()

let rename fs src_str dst_str =
  let src = Fs_spec.path_of_string src_str and dst = Fs_spec.path_of_string dst_str in
  if src = [] then -Ksim.Errno.to_code Ksim.Errno.ENOENT
  else
    match lookup_ino fs src with
    | None -> -Ksim.Errno.to_code Ksim.Errno.ENOENT
    | Some src_ino -> (
        if dst = [] then -Ksim.Errno.to_code Ksim.Errno.EINVAL
        else if Fs_spec.is_prefix src dst && src <> dst then
          -Ksim.Errno.to_code Ksim.Errno.EINVAL
        else
          match parent_entries fs dst with
          | Error e -> -Ksim.Errno.to_code e
          | Ok dst_entries -> (
              let clash =
                match (node fs src_ino, lookup_node fs dst) with
                | _, None -> 0
                | Some (File _), Some (File _) -> 0
                | Some (File _), Some (Dir _) -> -Ksim.Errno.to_code Ksim.Errno.EISDIR
                | Some (Dir _), Some (File _) -> -Ksim.Errno.to_code Ksim.Errno.ENOTDIR
                | Some (Dir _), Some (Dir d) ->
                    if Hashtbl.length d.entries = 0 then 0
                    else -Ksim.Errno.to_code Ksim.Errno.ENOTEMPTY
                | None, _ -> -Ksim.Errno.to_code Ksim.Errno.ENOENT
              in
              if clash <> 0 then clash
              else if src = dst then 0
              else begin
                (match lookup_ino fs dst with
                | Some old_ino when old_ino <> src_ino -> free_subtree fs old_ino
                | Some _ | None -> ());
                (match parent_entries fs src with
                | Ok src_entries -> Hashtbl.remove src_entries (basename_exn src)
                | Error _ -> ());
                Hashtbl.replace dst_entries (basename_exn dst) src_ino;
                0
              end))

let readdir fs path_str =
  let path = Fs_spec.path_of_string path_str in
  match lookup_node fs path with
  | Some (Dir d) ->
      Ok (Hashtbl.fold (fun name _ acc -> name :: acc) d.entries [] |> List.sort String.compare)
  | Some (File _) -> Error (-Ksim.Errno.to_code Ksim.Errno.ENOTDIR)
  | None -> Error (-Ksim.Errno.to_code Ksim.Errno.ENOENT)

let stat fs path_str =
  let path = Fs_spec.path_of_string path_str in
  match lookup_node fs path with
  | Some (File f) -> Ok (Kvfs.Vtypes.Regular, String.length (file_content fs f))
  | Some (Dir _) -> Ok (Kvfs.Vtypes.Directory, 0)
  | None -> Error (-Ksim.Errno.to_code Ksim.Errno.ENOENT)

let fsync (_ : fs) = 0

(* Depth first, each directory's children in name order: path order. *)
let interpret fs : Fs_spec.bindings =
  let rec go ino rel acc =
    match node fs ino with
    | Some (Dir d) ->
        let acc = if rel = [] then acc else (rel, Fs_spec.Dir) :: acc in
        Hashtbl.fold (fun name child acc -> (name, child) :: acc) d.entries []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.fold_left (fun acc (name, child) -> go child (rel @ [ name ]) acc) acc
    | Some (File f) ->
        (* Interpreting freed content would itself be a UAF; report what a
           crashed kernel would: treat it as absent. *)
        if Ksim.Kmem.is_live f.content then (rel, Fs_spec.File (Ksim.Kmem.read f.content)) :: acc
        else acc
    | None -> acc
  in
  List.rev (go root_ino [] [])

(* The modular view (roadmap step 1 applied to this module). *)
module Legacy = struct
  type nonrec fs = fs

  let fs_name = fs_name
  let mkfs = mkfs
  let lookup = lookup
  let create = create
  let write_begin = write_begin
  let write_end = write_end
  let read = read
  let unlink = unlink
  let rmdir = rmdir
  let rename = rename
  let readdir = readdir
  let stat = stat
  let truncate = truncate
  let fsync = fsync
  let interpret = interpret
end

module Modular = Kvfs.Iface.Of_legacy (Legacy)

(* Unlocked i_size accesses so far, summed over the live files: the
   runtime count of the race [skip_i_lock] plants. *)
let races fs =
  Hashtbl.fold
    (fun _ n acc ->
      match n with File f -> acc + Ksim.Klock.Guarded.races f.vnode.i_size | Dir _ -> acc)
    fs.inodes 0
