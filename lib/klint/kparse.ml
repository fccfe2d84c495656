(* Parsing front end: one .ml file to a Parsetree.structure via the
   installed compiler's own parser (compiler-libs), so klint sees
   exactly the syntax the build sees. *)

let parse path =
  match Pparse.parse_implementation ~tool_name:"klint" path with
  | structure -> Ok structure
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok report) -> Error (Format.asprintf "%a" Location.print_report report)
      | Some `Already_displayed | None -> Error (Printexc.to_string exn))

(* The tree every pass reads: each .ml under ROOT/lib, parsed once, as
   (every file, the parsed ones, (file, message) for the rest). *)
let tree ~root =
  let files = Loc.ml_files_under ~root "lib" in
  let parsed, errors =
    List.partition_map
      (fun rel ->
        match parse (Filename.concat root rel) with
        | Ok structure -> Left (rel, structure)
        | Error msg -> Right (rel, msg))
      files
  in
  (files, parsed, errors)

(* Record files the passes are reconciled against: the runtime export
   and the refine coverage file.  One record per line; blank and '#'
   lines are skipped.  A malformed line is an error, and so is a file
   with no records — a truncated or missing file must not pass
   reconciliation by vacuity. *)
type 'a records = { what : string; of_line : string -> 'a option }

let read_records { what; of_line } path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec loop acc lineno =
            match input_line ic with
            | exception End_of_file ->
                if acc = [] then Error (Fmt.str "%s: no %s records; checked nothing" path what)
                else Ok (List.rev acc)
            | line when String.trim line = "" || line.[0] = '#' -> loop acc (lineno + 1)
            | line -> (
                match of_line line with
                | Some r -> loop (r :: acc) (lineno + 1)
                | None -> Error (Fmt.str "%s:%d: malformed %s line %S" path lineno what line))
          in
          loop [] 1)

(* One kind of record in the runtime export [Ksim.Export] writes, one
   "kind\tfield\t..." line each.  The pass that reconciles a kind owns
   its field decoder. *)
type 'a kind = { kind : string; of_fields : string list -> 'a option }

(* The runtime export, read once, as (kind, fields) in file order.  A
   line of any kind outside [kinds] is malformed, and each of [kinds]
   needs records of its own: a producer that never reached the export
   would otherwise let its reconciliation check nothing. *)
let read_export ~kinds path =
  let of_line line =
    match String.split_on_char '\t' line with
    | kind :: (_ :: _ as fields) when List.mem kind kinds -> Some (kind, fields)
    | _ -> None
  in
  Result.bind (read_records { what = "runtime export"; of_line } path) (fun rows ->
      match List.find_opt (fun kind -> not (List.mem_assoc kind rows)) kinds with
      | Some kind -> Error (Fmt.str "%s: no %s records; checked nothing" path kind)
      | None -> Ok rows)

(* The records of one kind, decoded by its pass; a record its decoder
   rejects is malformed. *)
let decode { kind; of_fields } rows =
  let decoded =
    List.filter_map
      (fun (k, fields) -> if String.equal k kind then Some (fields, of_fields fields) else None)
      rows
  in
  match List.find_opt (fun (_, r) -> Option.is_none r) decoded with
  | Some (fields, _) -> Error (Fmt.str "malformed %s record %S" kind (String.concat "\t" fields))
  | None -> Ok (List.filter_map snd decoded)
