(* The grandfather file: findings present when klint was introduced.
   The ratchet only tightens — a finding matching a baseline entry is
   tolerated, a new one is not (when the claiming subsystem's level
   forbids its bug class), and entries that stop matching are reported
   as ratchet progress so the file can be regenerated smaller.

   Format, one entry per line, sorted by file/line/rule so regeneration
   never produces spurious diffs:

     R1 lib/knet/sock.ml:121 type-confusion
*)

type entry = {
  rule : Finding.rule;
  file : string;
  line : int;
}

let entry_of_finding (f : Finding.t) =
  { rule = f.Finding.rule; file = f.Finding.file; line = f.Finding.line }

let compare_entry a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Stdlib.compare a.line b.line with
      | 0 -> String.compare (Finding.rule_id a.rule) (Finding.rule_id b.rule)
      | c -> c)
  | c -> c

let of_findings findings =
  List.sort_uniq compare_entry (List.map entry_of_finding findings)

let entry_to_line e =
  Fmt.str "%s %s:%d %s" (Finding.rule_id e.rule) e.file e.line
    (Safeos_core.Level.bug_class_to_string (Finding.bug_class e.rule))

let header =
  "# klint baseline — grandfathered findings, sorted by file/line/rule.\n\
   # Regenerate (after genuine fixes only) with:\n\
   #   dune exec bin/klint/main.exe -- --update-baseline\n"

let to_string entries =
  header ^ String.concat "" (List.map (fun e -> entry_to_line e ^ "\n") entries)

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    match String.split_on_char ' ' line with
    | rule_id :: loc :: _ -> (
        match (Finding.rule_of_id rule_id, String.rindex_opt loc ':') with
        | Some rule, Some i -> (
            let file = String.sub loc 0 i in
            match int_of_string_opt (String.sub loc (i + 1) (String.length loc - i - 1)) with
            | Some line -> Ok (Some { rule; file; line })
            | None -> Error (Fmt.str "bad line number in %S" loc))
        | None, _ -> Error (Fmt.str "unknown rule id %S" rule_id)
        | _, None -> Error (Fmt.str "missing :line in %S" loc))
    | _ -> Error (Fmt.str "malformed baseline entry %S" line)

let of_string s =
  let entries = ref [] in
  let errors = ref [] in
  List.iter
    (fun line ->
      match parse_line line with
      | Ok (Some e) -> entries := e :: !entries
      | Ok None -> ()
      | Error msg -> errors := msg :: !errors)
    (String.split_on_char '\n' s);
  match !errors with
  | [] -> Ok (List.sort_uniq compare_entry !entries)
  | errs -> Error (String.concat "; " (List.rev errs))

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let save path entries =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string entries))

let mem entries (f : Finding.t) =
  let e = entry_of_finding f in
  List.exists (fun e' -> compare_entry e e' = 0) entries

(* Baseline entries no longer matched by any finding: the ratchet moved. *)
let stale entries findings =
  let live = of_findings findings in
  List.filter (fun e -> not (List.exists (fun l -> compare_entry e l = 0) live)) entries

(* Count ratchets ----------------------------------------------------------- *)

(* The shared engine behind every per-(rule, file) *count* baseline:
   tcb.baseline (R12-R14) and dur.baseline (R16-R18) both ratchet
   downward-only counts, renumbering-proof by construction — no line
   numbers, so moving code around a specimen file cannot fake progress
   or regression.  One entry per line:

     R12 lib/kfs/memfs_unsafe.ml 17

   Each client supplies its own header; parsing, comparison, and the
   regression/progress split live here once.  The line-anchored
   klint.baseline growth check rides the same comparison via [counts]. *)
module Counts = struct
  type entry = {
    b_rule : Finding.rule;
    b_file : string;
    b_count : int;
  }

  let compare_entry a b =
    match String.compare a.b_file b.b_file with
    | 0 -> String.compare (Finding.rule_id a.b_rule) (Finding.rule_id b.b_rule)
    | c -> c

  let of_findings findings =
    List.fold_left
      (fun acc (f : Finding.t) ->
        let k = (f.Finding.rule, f.Finding.file) in
        let n = try List.assoc k acc with Not_found -> 0 in
        (k, n + 1) :: List.remove_assoc k acc)
      [] findings
    |> List.map (fun ((rule, file), count) ->
           { b_rule = rule; b_file = file; b_count = count })
    |> List.sort compare_entry

  let entry_to_line e =
    Fmt.str "%s %s %d" (Finding.rule_id e.b_rule) e.b_file e.b_count

  let to_string ~header entries =
    header ^ String.concat "" (List.map (fun e -> entry_to_line e ^ "\n") entries)

  let parse_line line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok None
    else
      match String.split_on_char ' ' line with
      | [ rule_id; file; count ] -> (
          match (Finding.rule_of_id rule_id, int_of_string_opt count) with
          | Some rule, Some count when count >= 0 ->
              Ok (Some { b_rule = rule; b_file = file; b_count = count })
          | None, _ -> Error (Fmt.str "unknown rule id %S" rule_id)
          | _, _ -> Error (Fmt.str "bad count in %S" line))
      | _ -> Error (Fmt.str "malformed count baseline entry %S" line)

  let of_string s =
    let entries = ref [] in
    let errors = ref [] in
    List.iter
      (fun line ->
        match parse_line line with
        | Ok (Some e) -> entries := e :: !entries
        | Ok None -> ()
        | Error msg -> errors := msg :: !errors)
      (String.split_on_char '\n' s);
    match !errors with
    | [] -> Ok (List.sort compare_entry !entries)
    | errs -> Error (String.concat "; " (List.rev errs))

  let load path =
    if not (Sys.file_exists path) then Ok []
    else
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> of_string (really_input_string ic (in_channel_length ic)))

  let save ~header path entries =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_string ~header entries))

  type delta = {
    d_rule : Finding.rule;
    d_file : string;
    d_have : int;
    d_allowed : int;
  }

  (* [compare_counts ~baseline current] = (regressions, progress): any
     (rule, file) whose live count exceeds its grandfathered count is a
     regression; any strictly below it (including entries that vanished)
     is ratchet progress, reported so the file can be regenerated
     smaller. *)
  let compare_counts ~baseline current =
    let find entries rule file =
      match
        List.find_opt
          (fun e -> e.b_rule = rule && String.equal e.b_file file)
          entries
      with
      | Some e -> e.b_count
      | None -> 0
    in
    let regressions =
      List.filter_map
        (fun e ->
          let allowed = find baseline e.b_rule e.b_file in
          if e.b_count > allowed then
            Some
              { d_rule = e.b_rule; d_file = e.b_file; d_have = e.b_count; d_allowed = allowed }
          else None)
        current
    in
    let progress =
      List.filter_map
        (fun e ->
          let have = find current e.b_rule e.b_file in
          if have < e.b_count then
            Some { d_rule = e.b_rule; d_file = e.b_file; d_have = have; d_allowed = e.b_count }
          else None)
        baseline
    in
    (regressions, progress)
end

(* The line-anchored baseline, aggregated per (rule, file) — the growth
   comparison ci.sh used to re-derive in awk: pure renumbering from
   unrelated edits in the same file is not growth, one more finding in a
   file is. *)
let counts entries =
  Counts.of_findings
    (List.map
       (fun e ->
         { Finding.rule = e.rule; file = e.file; line = e.line; col = 0; func = "";
           message = "" })
       entries)
