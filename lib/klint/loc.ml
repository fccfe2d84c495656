(* Effective-line counting for the Figure-1 audit: a line counts when it
   carries code — not blank, not entirely inside a comment.  Deliberately
   a small scanner rather than a full lexer; string literals are tracked
   so a ["(*"] inside a string does not open a comment. *)

let count_string s =
  let n = String.length s in
  let lines = ref 0 in
  let code_on_line = ref false in
  let depth = ref 0 in
  let in_string = ref false in
  let i = ref 0 in
  let flush_line () =
    if !code_on_line then incr lines;
    code_on_line := false
  in
  while !i < n do
    let c = s.[!i] in
    (if !in_string then
       match c with
       | '\\' when !i + 1 < n -> incr i (* skip the escaped char *)
       | '"' -> in_string := false
       | '\n' -> flush_line ()
       | _ -> ()
     else if !depth > 0 then
       match c with
       | '(' when !i + 1 < n && s.[!i + 1] = '*' ->
           incr depth;
           incr i
       | '*' when !i + 1 < n && s.[!i + 1] = ')' ->
           decr depth;
           incr i
       | '\n' -> flush_line ()
       | _ -> ()
     else
       match c with
       | '(' when !i + 1 < n && s.[!i + 1] = '*' ->
           incr depth;
           incr i
       | '"' ->
           in_string := true;
           code_on_line := true
       | '\n' -> flush_line ()
       | ' ' | '\t' | '\r' -> ()
       | _ -> code_on_line := true);
    incr i
  done;
  flush_line ();
  !lines

let count_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> count_string (really_input_string ic (in_channel_length ic)))

let is_ml path = Filename.check_suffix path ".ml"

(* Every .ml under [dir], recursively, as root-relative '/'-paths in
   lexicographic order — the deterministic file walk the whole linter
   shares. *)
let rec ml_files_under ~root rel =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Sys.readdir abs |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           if String.length name > 0 && name.[0] = '.' then []
           else
             let child = if rel = "" then name else rel ^ "/" ^ name in
             let child_abs = Filename.concat root child in
             if Sys.is_directory child_abs then ml_files_under ~root child
             else if is_ml child then [ child ]
             else [])
  else if is_ml rel then [ rel ]
  else []

(* The file in [files] whose module basename is [name]
   ([memfs_unsafe] -> [lib/kfs/memfs_unsafe.ml]): how a runtime export
   that names a heap or a cache is attributed to source. *)
let file_named ~files name =
  List.find_opt
    (fun rel -> String.equal (Filename.remove_extension (Filename.basename rel)) name)
    files

(* [loc_of_dir ~root path]: effective lines of one file or of every .ml
   under a directory, both given relative to [root]. *)
let loc_of_dir ~root path =
  if not (Sys.file_exists (Filename.concat root path)) then None
  else
    Some
      (List.fold_left
         (fun acc rel -> acc + count_file (Filename.concat root rel))
         0
         (ml_files_under ~root path))
