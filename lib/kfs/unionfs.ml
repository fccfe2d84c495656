(* An overlayfs-shaped union file system: a writable upper layer over a
   read-only lower layer, mounted through the modular interface only —
   it never sees either layer's internals, demonstrating that step-1
   interfaces are enough to build stacked file systems ("VFS was a
   response to the need to support new functionality").

   Deletions of lower entries are recorded as ".wh.<name>" whiteout files
   in the upper layer, exactly like overlayfs.  Directory rename returns
   EXDEV, as overlayfs itself does without redirect_dir. *)

open Kspec

type fs = {
  upper : Kvfs.Iface.instance;
  lower : Kvfs.Iface.instance;
}

let fs_name = "unionfs"
let stage = 2

let whiteout_prefix = ".wh."

let is_whiteout_name name =
  String.length name > String.length whiteout_prefix
  && String.sub name 0 (String.length whiteout_prefix) = whiteout_prefix

let whiteout_path path =
  match (Fs_spec.parent path, Fs_spec.basename path) with
  | Some par, Some base -> Some (par @ [ whiteout_prefix ^ base ])
  | _ -> None

let make ~upper ~lower = { upper; lower }

let mkfs () =
  {
    upper = Kvfs.Iface.make (module Memfs_typed) ();
    lower = Kvfs.Iface.make (module Memfs_typed) ();
  }

let lower fs = fs.lower

let stat_layer layer path : [ `File of int | `Dir ] option =
  match Kvfs.Iface.instance_apply layer (Fs_spec.Stat path) with
  | Ok (Fs_spec.Attr { kind = `File; size }) -> Some (`File size)
  | Ok (Fs_spec.Attr { kind = `Dir; _ }) -> Some `Dir
  | Ok _ | Error _ -> None

let has_whiteout fs path =
  match whiteout_path path with
  | None -> false
  | Some wh -> stat_layer fs.upper wh <> None

(* Is any strict ancestor of [path] whited-out or shadowed by an upper
   file?  If so the lower entry at [path] is invisible. *)
let rec ancestor_hidden fs path =
  match Fs_spec.parent path with
  | None -> false
  | Some par ->
      par <> []
      && (has_whiteout fs par
         || (match stat_layer fs.upper par with Some (`File _) -> true | _ -> false)
         || ancestor_hidden fs par)

type visibility =
  | In_upper of [ `File of int | `Dir ]
  | In_lower of [ `File of int | `Dir ]
  | Absent

let visible fs path =
  match stat_layer fs.upper path with
  | Some v -> In_upper v
  | None ->
      if has_whiteout fs path || ancestor_hidden fs path then Absent
      else (
        match stat_layer fs.lower path with Some v -> In_lower v | None -> Absent)

let apply_upper fs op = Kvfs.Iface.instance_apply fs.upper op
let apply_lower fs op = Kvfs.Iface.instance_apply fs.lower op

(* Make sure every directory on the way to [path]'s parent exists in the
   upper layer (copy-up of the directory skeleton). *)
let ensure_upper_dirs fs path =
  let rec go prefix = function
    | [] | [ _ ] -> Ok ()
    | comp :: rest -> (
        let dir = prefix @ [ comp ] in
        match stat_layer fs.upper dir with
        | Some `Dir -> go dir rest
        | Some (`File _) -> Error Ksim.Errno.ENOTDIR
        | None -> (
            match apply_upper fs (Fs_spec.Mkdir dir) with
            | Ok _ | Error Ksim.Errno.EEXIST -> go dir rest
            | Error e -> Error e))
  in
  go [] path

let read_all layer path size =
  match Kvfs.Iface.instance_apply layer (Fs_spec.Read { file = path; off = 0; len = size }) with
  | Ok (Fs_spec.Data data) -> Ok data
  | Ok _ -> Error Ksim.Errno.EIO
  | Error e -> Error e

let remove_whiteout fs path =
  match whiteout_path path with
  | None -> ()
  | Some wh -> ignore (apply_upper fs (Fs_spec.Unlink wh))

(* Copy a lower file into the upper layer so it can be mutated. *)
let copy_up fs path size =
  let ( let* ) = Ksim.Errno.( let* ) in
  let* () = ensure_upper_dirs fs path in
  let* data = read_all fs.lower path size in
  let* () =
    match apply_upper fs (Fs_spec.Create path) with
    | Ok _ -> Ok ()
    | Error e -> Error e
  in
  match apply_upper fs (Fs_spec.Write { file = path; off = 0; data }) with
  | Ok _ -> Ok ()
  | Error e -> Error e

let merged_children fs path =
  let names layer =
    match Kvfs.Iface.instance_apply layer (Fs_spec.Readdir path) with
    | Ok (Fs_spec.Names names) -> names
    | Ok _ | Error _ -> []
  in
  let upper_names = names fs.upper in
  let lower_names =
    if ancestor_hidden fs path || has_whiteout fs path then [] else names fs.lower
  in
  let whiteouts, real_upper = List.partition is_whiteout_name upper_names in
  let hidden =
    List.map
      (fun wh -> String.sub wh (String.length whiteout_prefix)
                   (String.length wh - String.length whiteout_prefix))
      whiteouts
  in
  let lower_visible =
    List.filter (fun n -> not (List.mem n hidden) && not (List.mem n real_upper)) lower_names
  in
  List.sort String.compare (real_upper @ lower_visible)

(* Route a mutating file operation: copy-up if the file lives below. *)
let mutate_file fs path op =
  match visible fs path with
  | In_upper (`File _) -> apply_upper fs op
  | In_upper `Dir -> Error Ksim.Errno.EISDIR
  | In_lower (`File size) -> (
      match copy_up fs path size with Ok () -> apply_upper fs op | Error e -> Error e)
  | In_lower `Dir -> Error Ksim.Errno.EISDIR
  | Absent -> if path = [] then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT

let parent_visible_dir fs path =
  match Fs_spec.parent path with
  | None -> Error Ksim.Errno.EINVAL
  | Some par -> (
      match visible fs par with
      | In_upper `Dir | In_lower `Dir -> Ok par
      | In_upper (`File _) | In_lower (`File _) | Absent ->
          if par = [] then Ok par else Error Ksim.Errno.ENOENT)

let add_entry fs path op =
  let ( let* ) = Ksim.Errno.( let* ) in
  match visible fs path with
  | In_upper _ | In_lower _ -> Error Ksim.Errno.EEXIST
  | Absent ->
      let* _ = parent_visible_dir fs path in
      let* () = ensure_upper_dirs fs path in
      remove_whiteout fs path;
      apply_upper fs op

let delete fs path ~in_lower =
  let ( let* ) = Ksim.Errno.( let* ) in
  let* () =
    match stat_layer fs.upper path with
    | Some (`File _) -> (
        match apply_upper fs (Fs_spec.Unlink path) with Ok _ -> Ok () | Error e -> Error e)
    | Some `Dir -> (
        (* The upper directory may hold only whiteout entries for lower
           children; they go with the directory. *)
        (match apply_upper fs (Fs_spec.Readdir path) with
        | Ok (Fs_spec.Names names) ->
            List.iter
              (fun name ->
                if is_whiteout_name name then
                  ignore (apply_upper fs (Fs_spec.Unlink (path @ [ name ]))))
              names
        | Ok _ | Error _ -> ());
        match apply_upper fs (Fs_spec.Rmdir path) with Ok _ -> Ok () | Error e -> Error e)
    | None -> Ok ()
  in
  if in_lower then begin
    let* () = ensure_upper_dirs fs path in
    match whiteout_path path with
    | None -> Error Ksim.Errno.EINVAL
    | Some wh -> (
        match apply_upper fs (Fs_spec.Create wh) with
        | Ok _ | Error Ksim.Errno.EEXIST -> Ok ()
        | Error e -> Error e)
  end
  else Ok ()

let lower_has fs path =
  (not (has_whiteout fs path))
  && (not (ancestor_hidden fs path))
  && stat_layer fs.lower path <> None

let apply fs (op : Fs_spec.op) : Fs_spec.result =
  match op with
  | Create path -> add_entry fs path (Fs_spec.Create path)
  | Mkdir path -> add_entry fs path (Fs_spec.Mkdir path)
  | Write { file; off; data } ->
      if off < 0 then Error Ksim.Errno.EINVAL
      else mutate_file fs file (Fs_spec.Write { file; off; data })
  | Truncate (path, size) ->
      if size < 0 then Error Ksim.Errno.EINVAL else mutate_file fs path (Fs_spec.Truncate (path, size))
  | Read { file; off; len } -> (
      if off < 0 || len < 0 then Error Ksim.Errno.EINVAL
      else
        match visible fs file with
        | In_upper (`File _) -> apply_upper fs op
        | In_lower (`File _) -> apply_lower fs (Fs_spec.Read { file; off; len })
        | In_upper `Dir | In_lower `Dir -> Error Ksim.Errno.EISDIR
        | Absent ->
            if file = [] then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
  | Unlink path -> (
      match visible fs path with
      | In_upper (`File _) | In_lower (`File _) ->
          Result.map (fun () -> Fs_spec.Unit) (delete fs path ~in_lower:(lower_has fs path))
      | In_upper `Dir | In_lower `Dir -> Error Ksim.Errno.EISDIR
      | Absent -> if path = [] then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
  | Rmdir [] -> Error Ksim.Errno.EBUSY
  | Rmdir path -> (
      match visible fs path with
      | In_upper `Dir | In_lower `Dir ->
          if merged_children fs path <> [] then Error Ksim.Errno.ENOTEMPTY
          else Result.map (fun () -> Fs_spec.Unit) (delete fs path ~in_lower:(lower_has fs path))
      | In_upper (`File _) | In_lower (`File _) -> Error Ksim.Errno.ENOTDIR
      | Absent -> Error Ksim.Errno.ENOENT)
  | Rename ([], _) -> Error Ksim.Errno.ENOENT
  | Rename (src, dst) -> (
      match visible fs src with
      | Absent -> Error Ksim.Errno.ENOENT
      | In_upper `Dir | In_lower `Dir ->
          (* overlayfs without redirect_dir refuses directory renames. *)
          Error Ksim.Errno.EXDEV
      | In_upper (`File size) | In_lower (`File size) -> (
          if dst = [] then Error Ksim.Errno.EINVAL
          else
            let ( let* ) = Ksim.Errno.( let* ) in
            let checked =
              let* _ = parent_visible_dir fs dst in
              match visible fs dst with
              | In_upper `Dir | In_lower `Dir -> Error Ksim.Errno.EISDIR
              | In_upper (`File _) | In_lower (`File _) | Absent -> Ok ()
            in
            match checked with
            | Error e -> Error e
            | Ok () ->
                if src = dst then Ok Fs_spec.Unit
                else
                  let source_layer =
                    match visible fs src with In_upper _ -> fs.upper | _ -> fs.lower
                  in
                  let move =
                    let* data = read_all source_layer src size in
                    let* () = delete fs src ~in_lower:(lower_has fs src) in
                    let* () = ensure_upper_dirs fs dst in
                    remove_whiteout fs dst;
                    let* () =
                      match visible fs dst with
                      | In_upper (`File _) | In_lower (`File _) -> delete fs dst ~in_lower:(lower_has fs dst)
                      | _ -> Ok ()
                    in
                    remove_whiteout fs dst;
                    let* () =
                      match apply_upper fs (Fs_spec.Create dst) with
                      | Ok _ -> Ok ()
                      | Error e -> Error e
                    in
                    match apply_upper fs (Fs_spec.Write { file = dst; off = 0; data }) with
                    | Ok _ -> Ok ()
                    | Error e -> Error e
                  in
                  Result.map (fun () -> Fs_spec.Unit) move))
  | Readdir path -> (
      match visible fs path with
      | In_upper `Dir | In_lower `Dir -> Ok (Fs_spec.Names (merged_children fs path))
      | In_upper (`File _) | In_lower (`File _) -> Error Ksim.Errno.ENOTDIR
      | Absent -> if path = [] then Ok (Fs_spec.Names (merged_children fs path)) else Error Ksim.Errno.ENOENT)
  | Stat path -> (
      match visible fs path with
      | In_upper (`File size) | In_lower (`File size) ->
          Ok (Fs_spec.Attr { kind = `File; size })
      | In_upper `Dir | In_lower `Dir -> Ok (Fs_spec.Attr { kind = `Dir; size = 0 })
      | Absent ->
          if path = [] then Ok (Fs_spec.Attr { kind = `Dir; size = 0 })
          else Error Ksim.Errno.ENOENT)
  | Fsync -> (
      match (apply_upper fs Fs_spec.Fsync, apply_lower fs Fs_spec.Fsync) with
      | Ok _, Ok _ -> Ok Fs_spec.Unit
      | Error e, _ | _, Error e -> Error e)

let interpret fs : Fs_spec.bindings =
  let upper_state = Fs_spec.of_bindings (Kvfs.Iface.instance_interpret fs.upper) in
  let lower_state = Fs_spec.of_bindings (Kvfs.Iface.instance_interpret fs.lower) in
  let is_wh path = match Fs_spec.basename path with Some b -> is_whiteout_name b | None -> false in
  let hidden_by_whiteout path =
    (* the exact path or any ancestor has a whiteout in upper *)
    let rec check p =
      (match whiteout_path p with
      | Some wh -> Fs_spec.Pathmap.mem wh upper_state
      | None -> false)
      ||
      match Fs_spec.parent p with Some par when par <> [] -> check par | _ -> false
    in
    check path
  in
  let shadowed_by_upper_file path =
    let rec check p =
      match Fs_spec.parent p with
      | Some par when par <> [] -> (
          match Fs_spec.Pathmap.find_opt par upper_state with
          | Some (Fs_spec.File _) -> true
          | _ -> check par)
      | _ -> false
    in
    check path
  in
  let merged =
    Fs_spec.Pathmap.fold
      (fun path node acc ->
        if hidden_by_whiteout path || shadowed_by_upper_file path then acc
        else Fs_spec.Pathmap.add path node acc)
      lower_state Fs_spec.empty
  in
  Fs_spec.Pathmap.fold
    (fun path node acc -> if is_wh path then acc else Fs_spec.Pathmap.add path node acc)
    upper_state merged
  |> Fs_spec.Pathmap.bindings
