(* A btrfs-flavoured copy-on-write file system with O(1) snapshots.

   The whole tree is a persistent (immutable, structurally shared) value;
   a snapshot is just another reference to the current root, so snapshots
   cost one list cell and unchanged subtrees are shared between the live
   tree and every snapshot — the defining property of CoW file systems.
   [rollback] swings the root pointer back, and [diff] computes the
   changed paths between a snapshot and the live tree.

   No durability contracts (kdur @flushes/@durable) appear here: the
   whole tree lives in memory and never touches an [Io.t], so there is
   no write-back cache to order against — the crash surface is covered
   by the refinement harness replaying against [Fs_spec] instead. *)

open Kspec

module Smap = Map.Make (String)

type tree =
  | CFile of string
  | CDir of tree Smap.t

type fs = {
  mutable current : tree;
  mutable snaps : (string * tree) list; (* newest first *)
}

let fs_name = "cowfs"
let stage = 2

let mkfs () = { current = CDir Smap.empty; snaps = [] }

let rec find tree path =
  match (path, tree) with
  | [], t -> Some t
  | comp :: rest, CDir entries ->
      Option.bind (Smap.find_opt comp entries) (fun child -> find child rest)
  | _ :: _, CFile _ -> None

let is_dir tree path = match find tree path with Some (CDir _) -> true | _ -> false

let rec in_dir tree dirpath f =
  match (dirpath, tree) with
  | [], CDir entries -> Result.map (fun entries' -> CDir entries') (f entries)
  | [], CFile _ -> Error Ksim.Errno.ENOENT
  | comp :: rest, CDir entries -> (
      match Smap.find_opt comp entries with
      | Some child ->
          Result.map (fun child' -> CDir (Smap.add comp child' entries)) (in_dir child rest f)
      | None -> Error Ksim.Errno.ENOENT)
  | _ :: _, CFile _ -> Error Ksim.Errno.ENOENT

let in_parent fs path f =
  match (Fs_spec.parent path, Fs_spec.basename path) with
  | Some par, Some base -> in_dir fs.current par (f base)
  | _ -> Error Ksim.Errno.EINVAL

let commit fs = function
  | Ok root ->
      fs.current <- root;
      Ok Fs_spec.Unit
  | Error e -> Error e

let add_entry fs path node =
  commit fs
    (in_parent fs path (fun base entries ->
         if Smap.mem base entries then Error Ksim.Errno.EEXIST
         else Ok (Smap.add base node entries)))

let update_file fs path f =
  match find fs.current path with
  | Some (CFile content) ->
      commit fs
        (in_parent fs path (fun base entries -> Ok (Smap.add base (CFile (f content)) entries)))
  | Some (CDir _) -> Error Ksim.Errno.EISDIR
  | None ->
      if is_dir fs.current path then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT

let apply fs (op : Fs_spec.op) : Fs_spec.result =
  match op with
  | Create path -> add_entry fs path (CFile "")
  | Mkdir path -> add_entry fs path (CDir Smap.empty)
  | Write { file; off; data } ->
      if off < 0 then Error Ksim.Errno.EINVAL
      else update_file fs file (fun content -> Fs_spec.write_at content ~off ~data)
  | Read { file; off; len } -> (
      if off < 0 || len < 0 then Error Ksim.Errno.EINVAL
      else
        match find fs.current file with
        | Some (CFile content) -> Ok (Fs_spec.Data (Fs_spec.read_at content ~off ~len))
        | Some (CDir _) -> Error Ksim.Errno.EISDIR
        | None ->
            if is_dir fs.current file then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
  | Truncate (path, size) ->
      if size < 0 then Error Ksim.Errno.EINVAL
      else
        update_file fs path (fun content ->
            if String.length content >= size then String.sub content 0 size
            else content ^ String.make (size - String.length content) '\000')
  | Unlink path -> (
      match find fs.current path with
      | Some (CFile _) ->
          commit fs (in_parent fs path (fun base entries -> Ok (Smap.remove base entries)))
      | Some (CDir _) -> Error Ksim.Errno.EISDIR
      | None ->
          if is_dir fs.current path then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
  | Rmdir [] -> Error Ksim.Errno.EBUSY
  | Rmdir path -> (
      match find fs.current path with
      | Some (CDir entries) ->
          if not (Smap.is_empty entries) then Error Ksim.Errno.ENOTEMPTY
          else commit fs (in_parent fs path (fun base entries -> Ok (Smap.remove base entries)))
      | Some (CFile _) -> Error Ksim.Errno.ENOTDIR
      | None -> Error Ksim.Errno.ENOENT)
  | Rename ([], _) -> Error Ksim.Errno.ENOENT
  | Rename (src, dst) -> (
      match find fs.current src with
      | None -> Error Ksim.Errno.ENOENT
      | Some moved -> (
          if dst = [] then Error Ksim.Errno.EINVAL
          else if Fs_spec.is_prefix src dst && src <> dst then Error Ksim.Errno.EINVAL
          else
            let parent_ok =
              match Fs_spec.parent dst with
              | None -> Error Ksim.Errno.EINVAL
              | Some par ->
                  if is_dir fs.current par then Ok () else Error Ksim.Errno.ENOENT
            in
            match parent_ok with
            | Error e -> Error e
            | Ok () -> (
                let clash =
                  match (moved, find fs.current dst) with
                  | _, None -> Ok ()
                  | CFile _, Some (CFile _) -> Ok ()
                  | CFile _, Some (CDir _) -> Error Ksim.Errno.EISDIR
                  | CDir _, Some (CFile _) -> Error Ksim.Errno.ENOTDIR
                  | CDir _, Some (CDir d) ->
                      if Smap.is_empty d then Ok () else Error Ksim.Errno.ENOTEMPTY
                in
                match clash with
                | Error e -> Error e
                | Ok () ->
                    if src = dst then Ok Fs_spec.Unit
                    else begin
                      match in_parent fs src (fun base entries -> Ok (Smap.remove base entries)) with
                      | Error e -> Error e
                      | Ok detached ->
                          fs.current <- detached;
                          commit fs
                            (in_parent fs dst (fun base entries ->
                                 Ok (Smap.add base moved entries)))
                    end)))
  | Readdir path -> (
      match find fs.current path with
      | Some (CDir entries) -> Ok (Fs_spec.Names (List.map fst (Smap.bindings entries)))
      | Some (CFile _) -> Error Ksim.Errno.ENOTDIR
      | None -> Error Ksim.Errno.ENOENT)
  | Stat path -> (
      match find fs.current path with
      | Some (CFile content) -> Ok (Fs_spec.Attr { kind = `File; size = String.length content })
      | Some (CDir _) -> Ok (Fs_spec.Attr { kind = `Dir; size = 0 })
      | None -> Error Ksim.Errno.ENOENT)
  | Fsync -> Ok Fs_spec.Unit

(* Depth first, [Smap] folding each directory in name order: path order. *)
let interpret_tree tree : Fs_spec.bindings =
  let rec go tree rel acc =
    match tree with
    | CFile content -> (rel, Fs_spec.File content) :: acc
    | CDir entries ->
        let acc = if rel = [] then acc else (rel, Fs_spec.Dir) :: acc in
        Smap.fold (fun name child acc -> go child (rel @ [ name ]) acc) entries acc
  in
  List.rev (go tree [] [])

let interpret fs = interpret_tree fs.current

(* Snapshots ------------------------------------------------------------- *)

let snapshot fs ~name =
  if List.mem_assoc name fs.snaps then Error Ksim.Errno.EEXIST
  else begin
    fs.snaps <- (name, fs.current) :: fs.snaps;
    Ok ()
  end

let snapshots fs = List.rev_map fst fs.snaps

let rollback fs ~name =
  match List.assoc_opt name fs.snaps with
  | Some tree ->
      fs.current <- tree;
      Ok ()
  | None -> Error Ksim.Errno.ENOENT

let delete_snapshot fs ~name =
  if List.mem_assoc name fs.snaps then begin
    fs.snaps <- List.filter (fun (n, _) -> n <> name) fs.snaps;
    Ok ()
  end
  else Error Ksim.Errno.ENOENT

type change =
  | Added of Fs_spec.path
  | Removed of Fs_spec.path
  | Modified of Fs_spec.path

let diff fs ~since =
  match List.assoc_opt since fs.snaps with
  | None -> Error Ksim.Errno.ENOENT
  | Some old_tree ->
      let old_state = Fs_spec.of_bindings (interpret_tree old_tree)
      and new_state = Fs_spec.of_bindings (interpret fs) in
      let changes =
        Fs_spec.Pathmap.fold
          (fun path node acc ->
            match Fs_spec.Pathmap.find_opt path new_state with
            | None -> Removed path :: acc
            | Some node' -> if node = node' then acc else Modified path :: acc)
          old_state []
      in
      let changes =
        Fs_spec.Pathmap.fold
          (fun path _ acc ->
            if Fs_spec.Pathmap.mem path old_state then acc else Added path :: acc)
          new_state changes
      in
      Ok (List.sort compare changes)

(* Structural sharing accounting: how many tree nodes the live tree and a
   snapshot share (physical equality), demonstrating O(1) snapshots. *)
let shared_nodes fs ~with_snapshot =
  match List.assoc_opt with_snapshot fs.snaps with
  | None -> Error Ksim.Errno.ENOENT
  | Some snap ->
      let rec count a b =
        if a == b then
          let rec size = function
            | CFile _ -> 1
            | CDir entries -> Smap.fold (fun _ child acc -> acc + size child) entries 1
          in
          size a
        else
          match (a, b) with
          | CDir ea, CDir eb ->
              Smap.fold
                (fun name child acc ->
                  match Smap.find_opt name eb with
                  | Some child' -> acc + count child child'
                  | None -> acc)
                ea 0
          | _ -> 0
      in
      Ok (count fs.current snap)
