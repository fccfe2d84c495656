(* Reads the typed trees that dune writes next to its objects: one
   [.cmt] per implementation and one [.cmti] per interface.  A unit is
   named by its source file relative to the workspace root, because
   executables in different directories share module names
   ([Dune__exe__Main]). *)

type unit_ = {
  source : string;  (** e.g. ["lib/ksim/kmem.ml"] *)
  impl : Typedtree.structure option;
  intf : Typedtree.signature option;
}

let rec files dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | names ->
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then files path acc
          else if Filename.check_suffix name ".cmt"
                  || Filename.check_suffix name ".cmti"
          then path :: acc
          else acc)
        acc names

(* [load ~root dirs] reads every [.cmt]/[.cmti] under [root/dir] for
   each of [dirs] ([root] is dune's build context, e.g. [_build/default])
   and pairs them by source file.  Units without a source of their own
   (dune's generated library alias modules) are left out. *)
let load ~root dirs =
  let tbl = Hashtbl.create 256 in
  let add source f =
    let u =
      Option.value (Hashtbl.find_opt tbl source)
        ~default:{ source; impl = None; intf = None }
    in
    Hashtbl.replace tbl source (f u)
  in
  List.iter
    (fun dir ->
      List.iter
        (fun path ->
          let info = Cmt_format.read_cmt path in
          match info.cmt_sourcefile, info.cmt_annots with
          | Some src, Implementation str when Filename.check_suffix src ".ml" ->
              add src (fun u -> { u with impl = Some str })
          | Some src, Interface sg when Filename.check_suffix src ".mli" ->
              add (Filename.chop_suffix src ".mli" ^ ".ml")
                (fun u -> { u with intf = Some sg })
          | _ -> ())
        (files (Filename.concat root dir) []))
    dirs;
  Hashtbl.fold (fun _ u acc -> u :: acc) tbl []
  |> List.sort (fun a b -> compare a.source b.source)
