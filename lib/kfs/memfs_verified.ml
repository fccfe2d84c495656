(* The "verified" in-memory file system: roadmap step 4.

   [Impl] is a functional path-trie — a genuinely different data structure
   from the spec's flat path map, so the interpretation function does real
   abstraction work.  [Checked] wraps it in [Kspec.Krefine.Monitor]: every
   operation is checked against [Kspec.Fs_spec] as it executes, which is
   what "functionally verified" means inside the simulator.  The monitor's
   cost is the verification-overhead ablation in bench [roadmap/*]. *)

open Kspec

module Impl = struct
  type tree =
    | TFile of string
    | TDir of (string * tree) list (* sorted by name *)

  type vars = { mutable root : tree }

  let name = "memfs_verified"
  let init () = { root = TDir [] }

  let rec assoc_set name value = function
    | [] -> [ (name, value) ]
    | (n, v) :: rest ->
        let c = String.compare name n in
        if c < 0 then (name, value) :: (n, v) :: rest
        else if c = 0 then (name, value) :: rest
        else (n, v) :: assoc_set name value rest

  let assoc_remove name entries = List.filter (fun (n, _) -> not (String.equal n name)) entries

  let rec find tree path =
    match (path, tree) with
    | [], t -> Some t
    | comp :: rest, TDir entries ->
        Option.bind (List.assoc_opt comp entries) (fun child -> find child rest)
    | _ :: _, TFile _ -> None

  let is_dir tree path = match find tree path with Some (TDir _) -> true | _ -> false

  (* Rebuild the tree with the directory at [dirpath] transformed by [f].
     ENOENT when the path to it is missing or passes through a file,
     mirroring [Fs_spec.parent_ready]. *)
  let rec in_dir tree dirpath f =
    match (dirpath, tree) with
    | [], TDir entries -> Result.map (fun entries' -> TDir entries') (f entries)
    | [], TFile _ -> Error Ksim.Errno.ENOENT
    | comp :: rest, TDir entries -> (
        match List.assoc_opt comp entries with
        | Some child ->
            Result.map
              (fun child' -> TDir (assoc_set comp child' entries))
              (in_dir child rest f)
        | None -> Error Ksim.Errno.ENOENT)
    | _ :: _, TFile _ -> Error Ksim.Errno.ENOENT

  let in_parent t path f =
    match Fs_spec.parent path with
    | None -> Error Ksim.Errno.EINVAL
    | Some par -> (
        match Fs_spec.basename path with
        | None -> Error Ksim.Errno.EINVAL
        | Some base -> in_dir t.root par (f base))

  let commit t = function
    | Ok root' ->
        t.root <- root';
        Ok Fs_spec.Unit
    | Error e -> Error e

  let add_entry t path node =
    commit t
      (in_parent t path (fun base entries ->
           if List.mem_assoc base entries then Error Ksim.Errno.EEXIST
           else Ok (assoc_set base node entries)))

  let update_file t path f =
    match find t.root path with
    | Some (TFile content) ->
        commit t
          (in_parent t path (fun base entries -> Ok (assoc_set base (TFile (f content)) entries)))
    | Some (TDir _) -> Error Ksim.Errno.EISDIR
    | None -> if is_dir t.root path then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT

  let apply t (op : Fs_spec.op) : Fs_spec.result =
    match op with
    | Create path -> add_entry t path (TFile "")
    | Mkdir path -> add_entry t path (TDir [])
    | Write { file; off; data } ->
        if off < 0 then Error Ksim.Errno.EINVAL
        else update_file t file (fun content -> Fs_spec.write_at content ~off ~data)
    | Read { file; off; len } -> (
        if off < 0 || len < 0 then Error Ksim.Errno.EINVAL
        else
          match find t.root file with
          | Some (TFile content) -> Ok (Fs_spec.Data (Fs_spec.read_at content ~off ~len))
          | Some (TDir _) -> Error Ksim.Errno.EISDIR
          | None ->
              if is_dir t.root file then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
    | Truncate (path, size) ->
        if size < 0 then Error Ksim.Errno.EINVAL
        else
          update_file t path (fun content ->
              if String.length content >= size then String.sub content 0 size
              else content ^ String.make (size - String.length content) '\000')
    | Unlink path -> (
        match find t.root path with
        | Some (TFile _) ->
            commit t (in_parent t path (fun base entries -> Ok (assoc_remove base entries)))
        | Some (TDir _) -> Error Ksim.Errno.EISDIR
        | None ->
            if is_dir t.root path then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
    | Rmdir [] -> Error Ksim.Errno.EBUSY
    | Rmdir path -> (
        match find t.root path with
        | Some (TDir entries) ->
            if entries <> [] then Error Ksim.Errno.ENOTEMPTY
            else commit t (in_parent t path (fun base entries -> Ok (assoc_remove base entries)))
        | Some (TFile _) -> Error Ksim.Errno.ENOTDIR
        | None -> Error Ksim.Errno.ENOENT)
    | Rename ([], _) -> Error Ksim.Errno.ENOENT
    | Rename (src, dst) -> (
        match find t.root src with
        | None -> Error Ksim.Errno.ENOENT
        | Some moved -> (
            if dst = [] then Error Ksim.Errno.EINVAL
            else if Fs_spec.is_prefix src dst && src <> dst then Error Ksim.Errno.EINVAL
            else
              let dst_parent_ok =
                match Fs_spec.parent dst with
                | None -> Error Ksim.Errno.EINVAL
                | Some par ->
                    if is_dir t.root par then Ok () else Error Ksim.Errno.ENOENT
              in
              match dst_parent_ok with
              | Error e -> Error e
              | Ok () -> (
                  let clash =
                    match (moved, find t.root dst) with
                    | _, None -> Ok ()
                    | TFile _, Some (TFile _) -> Ok ()
                    | TFile _, Some (TDir _) -> Error Ksim.Errno.EISDIR
                    | TDir _, Some (TFile _) -> Error Ksim.Errno.ENOTDIR
                    | TDir _, Some (TDir entries) ->
                        if entries = [] then Ok () else Error Ksim.Errno.ENOTEMPTY
                  in
                  match clash with
                  | Error e -> Error e
                  | Ok () ->
                      if src = dst then Ok Fs_spec.Unit
                      else
                        (* Detach the subtree, then attach at dst. *)
                        let detached =
                          in_parent t src (fun base entries -> Ok (assoc_remove base entries))
                        in
                        (match detached with
                        | Error e -> Error e
                        | Ok root' ->
                            t.root <- root';
                            commit t
                              (in_parent t dst (fun base entries ->
                                   Ok (assoc_set base moved entries)))))))
    | Readdir path -> (
        match find t.root path with
        | Some (TDir entries) -> Ok (Fs_spec.Names (List.map fst entries))
        | Some (TFile _) -> Error Ksim.Errno.ENOTDIR
        | None -> Error Ksim.Errno.ENOENT)
    | Stat path -> (
        match find t.root path with
        | Some (TFile content) ->
            Ok (Fs_spec.Attr { kind = `File; size = String.length content })
        | Some (TDir _) -> Ok (Fs_spec.Attr { kind = `Dir; size = 0 })
        | None -> Error Ksim.Errno.ENOENT)
    | Fsync -> Ok Fs_spec.Unit

  let step t op = (t, apply t op)

  (* Depth first over entries kept in name order: path order. *)
  let interp t : Fs_spec.bindings =
    let rec go tree rel acc =
      match tree with
      | TFile content -> (rel, Fs_spec.File content) :: acc
      | TDir entries ->
          let acc = if rel = [] then acc else (rel, Fs_spec.Dir) :: acc in
          List.fold_left (fun acc (name, child) -> go child (rel @ [ name ]) acc) acc entries
    in
    List.rev (go t.root [] [])

  let inv _ = true
  let crash_images _ ~limit:_ = []
end

module Checked = Krefine.Monitor (Impl)

(* Present the monitored implementation as a mountable file system. *)
type fs = Checked.t

let fs_name = "memfs_verified"
let stage = 4
let mkfs = Checked.create
let apply = Checked.apply
let interpret = Checked.interpret
let checked_ops = Checked.checked_ops
