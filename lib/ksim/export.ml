(* The one runtime export.  Producers register a closure per kind; at
   exit the process renders every record as "kind\tfield\t..." and
   appends them all to the file KSIM_EXPORT names in one open.  Append
   mode, so every test binary in a suite contributes to the same file;
   concurrent processes cannot interleave lines while one process's
   records fit the channel buffer (64 KiB), since they then go out in
   one write.  A write error propagates out of the exit hook, so the
   process exits non-zero instead of silently dropping its share of the
   evidence. *)

let target_ref =
  ref (match Sys.getenv_opt "KSIM_EXPORT" with Some "" | None -> None | Some path -> Some path)

let target () = !target_ref
let set_target t = target_ref := t
let on () = Option.is_some !target_ref

(* Newest first. *)
let producers : (string * (unit -> string list list)) list ref = ref []

let register kind rows = producers := (kind, rows) :: !producers

let records () =
  List.concat_map
    (fun (kind, rows) -> List.map (fun fields -> (kind, fields)) (rows ()))
    (List.rev !producers)

let write path records =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (kind, fields) ->
      Buffer.add_string buf (String.concat "\t" (kind :: fields));
      Buffer.add_char buf '\n')
    records;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Buffer.contents buf);
      flush oc)

let () = at_exit (fun () -> Option.iter (fun path -> write path (records ())) !target_ref)
