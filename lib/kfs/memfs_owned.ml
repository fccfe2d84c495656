(* The ownership-safe in-memory file system: roadmap step 3.

   File content lives in regions of the [Ownership.Checker]; every access
   presents a capability.  The module's interface contract is the paper's
   restricted-sharing discipline: reads lend the region shared (model 3),
   writes lend it exclusive (model 2), unlink transfers ownership back to
   the allocator (free).  A use-after-free, double free, leak, or write
   during a shared lend is structurally impossible for well-typed clients
   and is *detected* (checker violation) for buggy ones. *)

open Kspec

type file_data = {
  mutable cap : Ownership.Cap.t;
  mutable size : int; (* logical size; the region may be larger *)
}

type node =
  | File of file_data
  | Dir of (string, int) Hashtbl.t

type fs = {
  ck : Ownership.Checker.t;
  inodes : (int, node) Hashtbl.t;
  mutable next_ino : int;
}

let fs_name = "memfs_owned"
let stage = 3
let root_ino = 0

let mkfs () =
  let inodes = Hashtbl.create 64 in
  Hashtbl.replace inodes root_ino (Dir (Hashtbl.create 8));
  { ck = Ownership.Checker.create ~strict:true (); inodes; next_ino = 1 }

let checker fs = fs.ck

let node fs ino = Hashtbl.find_opt fs.inodes ino

let rec walk fs ino = function
  | [] -> Some ino
  | comp :: rest -> (
      match node fs ino with
      | Some (Dir entries) -> (
          match Hashtbl.find_opt entries comp with
          | Some child -> walk fs child rest
          | None -> None)
      | Some (File _) | None -> None)

let lookup fs path = walk fs root_ino path
let lookup_node fs path = Option.bind (lookup fs path) (node fs)

let is_dir fs path =
  match lookup_node fs path with Some (Dir _) -> true | Some (File _) | None -> false

let parent_entries fs path =
  match Fs_spec.parent path with
  | None -> Error Ksim.Errno.EINVAL
  | Some par -> (
      match lookup_node fs par with
      | Some (Dir entries) -> Ok entries
      | Some (File _) | None -> Error Ksim.Errno.ENOENT)

let basename_exn path =
  match Fs_spec.basename path with Some name -> name | None -> assert false

let initial_region = 64

(** Read the whole logical content.  The FS lends the region shared to the
    requesting client — model 3: nobody can mutate while it reads.  The
    file's capability stays with the FS throughout.
    @borrows: f *)
let content fs (f : file_data) =
  if f.size = 0 then ""
  else
    Ownership.Checker.lend_shared fs.ck f.cap ~to_:[ "vfs-client" ] ~f:(fun borrowed ->
        match borrowed with
        | [ b ] -> Bytes.to_string (Ownership.Checker.read fs.ck b ~off:0 ~len:f.size)
        | _ -> assert false)

(** Replace the whole logical content, growing the region when needed.
    The write happens under an exclusive lend — model 2.  [f] is only
    borrowed: the (possibly fresh) region ends up owned by the file.
    @borrows: f *)
let set_content fs (f : file_data) data =
  let needed = String.length data in
  let region = Ownership.Checker.size fs.ck f.cap in
  if needed > region then begin
    let new_size = max initial_region (max needed (2 * region)) in
    let fresh = Ownership.Checker.alloc fs.ck ~holder:"memfs_owned" ~size:new_size in
    Ownership.Checker.free fs.ck f.cap;
    f.cap <- fresh
  end;
  Ownership.Checker.lend_exclusive fs.ck f.cap ~to_:"vfs-client" ~f:(fun b ->
      Ownership.Checker.write fs.ck b ~off:0 (Bytes.of_string data));
  f.size <- needed

(** Allocate a fresh empty file: its region is owned by the returned
    [file_data] and released by {!free_subtree} (or replaced wholesale by
    {!set_content}).
    @returns_owned *)
let alloc_file fs =
  { cap = Ownership.Checker.alloc fs.ck ~holder:"memfs_owned" ~size:initial_region; size = 0 }

let add_node fs path make_node =
  match parent_entries fs path with
  | Error e -> Error e
  | Ok entries ->
      if Hashtbl.mem entries (basename_exn path) then Error Ksim.Errno.EEXIST
      else begin
        let ino = fs.next_ino in
        fs.next_ino <- ino + 1;
        Hashtbl.replace fs.inodes ino (make_node ());
        Hashtbl.replace entries (basename_exn path) ino;
        Ok Fs_spec.Unit
      end

let with_file fs path f =
  match lookup_node fs path with
  | Some (File file) -> f file
  | Some (Dir _) -> Error Ksim.Errno.EISDIR
  | None -> if is_dir fs path then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT

let rec free_subtree fs ino =
  match node fs ino with
  | Some (Dir entries) ->
      Hashtbl.iter (fun _ child -> free_subtree fs child) entries;
      Hashtbl.remove fs.inodes ino
  | Some (File f) ->
      Ownership.Checker.free fs.ck f.cap;
      Hashtbl.remove fs.inodes ino
  | None -> ()

let apply fs (op : Fs_spec.op) : Fs_spec.result =
  match op with
  | Create path -> add_node fs path (fun () -> File (alloc_file fs))
  | Mkdir path -> add_node fs path (fun () -> Dir (Hashtbl.create 8))
  | Write { file; off; data } ->
      if off < 0 then Error Ksim.Errno.EINVAL
      else
        with_file fs file (fun f ->
            set_content fs f (Fs_spec.write_at (content fs f) ~off ~data);
            Ok Fs_spec.Unit)
  | Read { file; off; len } ->
      if off < 0 || len < 0 then Error Ksim.Errno.EINVAL
      else with_file fs file (fun f -> Ok (Fs_spec.Data (Fs_spec.read_at (content fs f) ~off ~len)))
  | Truncate (path, size) ->
      if size < 0 then Error Ksim.Errno.EINVAL
      else
        with_file fs path (fun f ->
            let c = content fs f in
            let c' =
              if String.length c >= size then String.sub c 0 size
              else c ^ String.make (size - String.length c) '\000'
            in
            set_content fs f c';
            Ok Fs_spec.Unit)
  | Unlink path -> (
      match lookup_node fs path with
      | Some (File _) -> (
          match parent_entries fs path with
          | Error e -> Error e
          | Ok entries ->
              (match lookup fs path with
              | Some ino -> free_subtree fs ino
              | None -> ());
              Hashtbl.remove entries (basename_exn path);
              Ok Fs_spec.Unit)
      | Some (Dir _) -> Error Ksim.Errno.EISDIR
      | None -> if path = [] then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
  | Rmdir [] -> Error Ksim.Errno.EBUSY
  | Rmdir path -> (
      match lookup_node fs path with
      | Some (Dir entries) ->
          if Hashtbl.length entries > 0 then Error Ksim.Errno.ENOTEMPTY
          else (
            match parent_entries fs path with
            | Error e -> Error e
            | Ok parent ->
                (match lookup fs path with
                | Some ino -> Hashtbl.remove fs.inodes ino
                | None -> ());
                Hashtbl.remove parent (basename_exn path);
                Ok Fs_spec.Unit)
      | Some (File _) -> Error Ksim.Errno.ENOTDIR
      | None -> Error Ksim.Errno.ENOENT)
  | Rename ([], _) -> Error Ksim.Errno.ENOENT
  | Rename (src, dst) -> (
      match lookup fs src with
      | None -> Error Ksim.Errno.ENOENT
      | Some src_ino -> (
          if dst = [] then Error Ksim.Errno.EINVAL
          else if Fs_spec.is_prefix src dst && src <> dst then Error Ksim.Errno.EINVAL
          else
            match parent_entries fs dst with
            | Error e -> Error e
            | Ok dst_entries -> (
                let clash =
                  match (node fs src_ino, lookup_node fs dst) with
                  | _, None -> Ok ()
                  | Some (File _), Some (File _) -> Ok ()
                  | Some (File _), Some (Dir _) -> Error Ksim.Errno.EISDIR
                  | Some (Dir _), Some (File _) -> Error Ksim.Errno.ENOTDIR
                  | Some (Dir _), Some (Dir d) ->
                      if Hashtbl.length d = 0 then Ok () else Error Ksim.Errno.ENOTEMPTY
                  | None, _ -> Error Ksim.Errno.ENOENT
                in
                match clash with
                | Error e -> Error e
                | Ok () ->
                    if src = dst then Ok Fs_spec.Unit
                    else begin
                      (match lookup fs dst with
                      | Some old_ino when old_ino <> src_ino -> free_subtree fs old_ino
                      | Some _ | None -> ());
                      (match parent_entries fs src with
                      | Ok src_entries -> Hashtbl.remove src_entries (basename_exn src)
                      | Error _ -> ());
                      Hashtbl.replace dst_entries (basename_exn dst) src_ino;
                      Ok Fs_spec.Unit
                    end)))
  | Readdir path -> (
      match lookup_node fs path with
      | Some (Dir entries) ->
          Ok
            (Fs_spec.Names
               (Hashtbl.fold (fun name _ acc -> name :: acc) entries []
               |> List.sort String.compare))
      | Some (File _) -> Error Ksim.Errno.ENOTDIR
      | None -> Error Ksim.Errno.ENOENT)
  | Stat path -> (
      match lookup_node fs path with
      | Some (File f) -> Ok (Fs_spec.Attr { kind = `File; size = f.size })
      | Some (Dir _) -> Ok (Fs_spec.Attr { kind = `Dir; size = 0 })
      | None -> Error Ksim.Errno.ENOENT)
  | Fsync -> Ok Fs_spec.Unit

(* Depth first, each directory's children in name order: path order. *)
let interpret fs : Fs_spec.bindings =
  let rec go ino rel acc =
    match node fs ino with
    | Some (Dir entries) ->
        let acc = if rel = [] then acc else (rel, Fs_spec.Dir) :: acc in
        Hashtbl.fold (fun name child acc -> (name, child) :: acc) entries []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.fold_left (fun acc (name, child) -> go child (rel @ [ name ]) acc) acc
    | Some (File f) -> (rel, Fs_spec.File (content fs f)) :: acc
    | None -> acc
  in
  List.rev (go root_ino [] [])

(* Unmount: release every region; a correct run leaves no leaks. *)
let destroy fs =
  free_subtree fs root_ino;
  Hashtbl.replace fs.inodes root_ino (Dir (Hashtbl.create 8));
  Ownership.Checker.check_leaks fs.ck
