(* The type-safe in-memory file system: roadmap step 2.

   Same inode-table shape as the unsafe variant, but no [Dyn] private
   data, no error-pointer returns, no manual allocation: lifetimes follow
   OCaml values, results are sum types.  By construction, the type
   confusion and errptr-misuse faults of [Memfs_unsafe] cannot be
   expressed here. *)

open Kspec

module Names = Map.Make (String)

type file_data = { mutable content : string }
type dir_data = { mutable entries : int Names.t (* name -> ino *) }

type node =
  | File of file_data
  | Dir of dir_data

type fs = {
  inodes : (int, node) Hashtbl.t;
  mutable next_ino : int;
}

let fs_name = "memfs_typed"
let stage = 2

let root_ino = 0

let mkfs () =
  let inodes = Hashtbl.create 64 in
  Hashtbl.replace inodes root_ino (Dir { entries = Names.empty });
  { inodes; next_ino = 1 }

let node fs ino = Hashtbl.find_opt fs.inodes ino

let fresh_ino fs =
  let ino = fs.next_ino in
  fs.next_ino <- ino + 1;
  ino

(* Walk a path to its inode. *)
let rec walk fs ino = function
  | [] -> Some ino
  | comp :: rest -> (
      match node fs ino with
      | Some (Dir d) -> (
          match Names.find_opt comp d.entries with
          | Some child -> walk fs child rest
          | None -> None)
      | Some (File _) | None -> None)

let lookup fs path = walk fs root_ino path

let lookup_node fs path =
  match lookup fs path with Some ino -> node fs ino | None -> None

let is_dir fs path =
  match lookup_node fs path with Some (Dir _) -> true | Some (File _) | None -> false

(* Mirrors [Fs_spec.parent_ready]: EINVAL on the root, ENOENT when the
   parent is missing or not a directory. *)
let parent_entries fs path =
  match Fs_spec.parent path with
  | None -> Error Ksim.Errno.EINVAL
  | Some par -> (
      match lookup_node fs par with
      | Some (Dir d) -> Ok d
      | Some (File _) | None -> Error Ksim.Errno.ENOENT)

let basename_exn path =
  match Fs_spec.basename path with Some name -> name | None -> assert false

let add_node fs path make_node =
  match parent_entries fs path with
  | Error e -> Error e
  | Ok d ->
      if Names.mem (basename_exn path) d.entries then Error Ksim.Errno.EEXIST
      else begin
        let ino = fresh_ino fs in
        Hashtbl.replace fs.inodes ino (make_node ());
        d.entries <- Names.add (basename_exn path) ino d.entries;
        Ok Fs_spec.Unit
      end

let with_file fs path f =
  match lookup_node fs path with
  | Some (File file) -> f file
  | Some (Dir _) -> Error Ksim.Errno.EISDIR
  | None -> if is_dir fs path || path = [] then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT

let rec remove_subtree fs ino =
  (match node fs ino with
  | Some (Dir d) -> Names.iter (fun _ child -> remove_subtree fs child) d.entries
  | Some (File _) | None -> ());
  Hashtbl.remove fs.inodes ino

let apply fs (op : Fs_spec.op) : Fs_spec.result =
  match op with
  | Create path -> add_node fs path (fun () -> File { content = "" })
  | Mkdir path -> add_node fs path (fun () -> Dir { entries = Names.empty })
  | Write { file; off; data } ->
      if off < 0 then Error Ksim.Errno.EINVAL
      else
        with_file fs file (fun f ->
            f.content <- Fs_spec.write_at f.content ~off ~data;
            Ok Fs_spec.Unit)
  | Read { file; off; len } ->
      if off < 0 || len < 0 then Error Ksim.Errno.EINVAL
      else with_file fs file (fun f -> Ok (Fs_spec.Data (Fs_spec.read_at f.content ~off ~len)))
  | Truncate (path, size) ->
      if size < 0 then Error Ksim.Errno.EINVAL
      else
        with_file fs path (fun f ->
            let content = f.content in
            f.content <-
              (if String.length content >= size then String.sub content 0 size
               else content ^ String.make (size - String.length content) '\000');
            Ok Fs_spec.Unit)
  | Unlink path -> (
      match lookup_node fs path with
      | Some (File _) -> (
          match parent_entries fs path with
          | Error e -> Error e
          | Ok d ->
              (match Names.find_opt (basename_exn path) d.entries with
              | Some ino -> Hashtbl.remove fs.inodes ino
              | None -> ());
              d.entries <- Names.remove (basename_exn path) d.entries;
              Ok Fs_spec.Unit)
      | Some (Dir _) -> Error Ksim.Errno.EISDIR
      | None -> if path = [] then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
  | Rmdir path when path = [] -> Error Ksim.Errno.EBUSY
  | Rmdir path -> (
      match lookup_node fs path with
      | Some (Dir d) ->
          if not (Names.is_empty d.entries) then Error Ksim.Errno.ENOTEMPTY
          else (
            match parent_entries fs path with
            | Error e -> Error e
            | Ok parent ->
                (match Names.find_opt (basename_exn path) parent.entries with
                | Some ino -> Hashtbl.remove fs.inodes ino
                | None -> ());
                parent.entries <- Names.remove (basename_exn path) parent.entries;
                Ok Fs_spec.Unit)
      | Some (File _) -> Error Ksim.Errno.ENOTDIR
      | None -> if path = [] then Error Ksim.Errno.EBUSY else Error Ksim.Errno.ENOENT)
  | Rename ([], _) -> Error Ksim.Errno.ENOENT
  | Rename (src, dst) -> (
      match lookup fs src with
      | None -> Error Ksim.Errno.ENOENT
      | Some src_ino -> (
          if src = [] || dst = [] then Error Ksim.Errno.EINVAL
          else if Fs_spec.is_prefix src dst && src <> dst then Error Ksim.Errno.EINVAL
          else
            match parent_entries fs dst with
            | Error e -> Error e
            | Ok dst_dir -> (
                let src_node = node fs src_ino in
                let dst_node = lookup_node fs dst in
                let clash =
                  match (src_node, dst_node) with
                  | _, None -> Ok ()
                  | Some (File _), Some (File _) -> Ok ()
                  | Some (File _), Some (Dir _) -> Error Ksim.Errno.EISDIR
                  | Some (Dir _), Some (File _) -> Error Ksim.Errno.ENOTDIR
                  | Some (Dir _), Some (Dir d) ->
                      if Names.is_empty d.entries then Ok () else Error Ksim.Errno.ENOTEMPTY
                  | None, _ -> Error Ksim.Errno.ENOENT
                in
                match clash with
                | Error e -> Error e
                | Ok () ->
                    if src = dst then Ok Fs_spec.Unit
                    else begin
                      (* Drop the target (recursively if an empty dir), then
                         swing the directory entry — the pointer swing the
                         paper mentions; the model sees a prefix
                         substitution. *)
                      (match lookup fs dst with
                      | Some old_ino when old_ino <> src_ino -> remove_subtree fs old_ino
                      | Some _ | None -> ());
                      (match parent_entries fs src with
                      | Ok src_dir ->
                          src_dir.entries <- Names.remove (basename_exn src) src_dir.entries
                      | Error _ -> ());
                      dst_dir.entries <- Names.add (basename_exn dst) src_ino dst_dir.entries;
                      Ok Fs_spec.Unit
                    end)))
  | Readdir path -> (
      match lookup_node fs path with
      | Some (Dir d) ->
          Ok (Fs_spec.Names (List.rev (Names.fold (fun name _ acc -> name :: acc) d.entries [])))
      | Some (File _) -> Error Ksim.Errno.ENOTDIR
      | None -> Error Ksim.Errno.ENOENT)
  | Stat path -> (
      match lookup_node fs path with
      | Some (File f) -> Ok (Fs_spec.Attr { kind = `File; size = String.length f.content })
      | Some (Dir _) -> Ok (Fs_spec.Attr { kind = `Dir; size = 0 })
      | None -> Error Ksim.Errno.ENOENT)
  | Fsync -> Ok Fs_spec.Unit

(* Depth first, [Names] folding each directory in name order: path order. *)
let interpret fs : Fs_spec.bindings =
  let rec go ino rel acc =
    match node fs ino with
    | Some (Dir d) ->
        let acc = if rel = [] then acc else (rel, Fs_spec.Dir) :: acc in
        Names.fold (fun name child acc -> go child (rel @ [ name ]) acc) d.entries acc
    | Some (File f) -> (rel, Fs_spec.File f.content) :: acc
    | None -> acc
  in
  List.rev (go root_ino [] [])
