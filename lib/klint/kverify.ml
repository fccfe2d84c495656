(* kverify: the "verified means checked" pass (rule R15).

   The safety ladder's top rung is a functional-correctness claim, and
   the only acceptable evidence is a krefine harness that actually runs:
   a [Kharness.harness ~name:"..." ~subsystem:"..."] registration ties a
   registry subsystem to an executable refinement machine.  This pass
   scans the tree for exactly that call shape (literal strings only — a
   registration must be statically visible, not computed), then R15
   fires on every registered subsystem whose live registry level is
   [Verified] with no matching registration.  R15's bug class is
   [Semantic], so via the normal reconciliation it becomes a violation
   precisely at the Verified rung: claiming less keeps the finding
   informational.

   The same module owns the krefine coverage exchange format — the rows
   [safeos refine --coverage-out] writes and [klint --refine-coverage]
   ratchets (grow-only, like the tcb count ratchet but in the other
   direction: coverage may only grow). *)

open Parsetree

type registration = {
  reg_name : string;  (** the harness name *)
  reg_subsystem : string;  (** the registry subsystem it verifies *)
  reg_file : string;
  reg_line : int;
}

type result = { registrations : registration list }

let last_component txt =
  match List.rev (Longident.flatten txt) with last :: _ -> last | [] -> ""

let string_arg args label =
  List.find_map
    (fun (lab, (e : expression)) ->
      match (lab, e.pexp_desc) with
      | Asttypes.Labelled l, Pexp_constant (Pconst_string (s, _, _)) when String.equal l label
        ->
          Some s
      | _ -> None)
    args

let scan_structure ~file structure =
  let found = ref [] in
  let expr_hook it (e : expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when String.equal (last_component txt) "harness" -> (
        match (string_arg args "name", string_arg args "subsystem") with
        | Some reg_name, Some reg_subsystem ->
            found :=
              {
                reg_name;
                reg_subsystem;
                reg_file = file;
                reg_line = e.pexp_loc.Location.loc_start.Lexing.pos_lnum;
              }
              :: !found
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_hook } in
  it.structure it structure;
  List.rev !found

let scan parsed =
  {
    registrations =
      List.concat_map (fun (file, structure) -> scan_structure ~file structure) parsed;
  }

(* R15 synthesis --------------------------------------------------------- *)

(* Anchor the finding in the subsystem's first source file so the normal
   claim attribution points it back at the offending subsystem. *)
let anchor_file sub =
  match Subsystem.sources_of sub with
  | Some (src :: _) -> src
  | _ -> "lib/" ^ sub

let r15 ~registry { registrations } =
  Safeos_core.Registry.all registry
  |> List.filter_map (fun (e : Safeos_core.Registry.entry) ->
         let covered =
           List.exists (fun r -> String.equal r.reg_subsystem e.Safeos_core.Registry.name)
             registrations
         in
         if Safeos_core.Level.(e.Safeos_core.Registry.level >= Verified) && not covered then
           Some
             {
               Finding.rule = Finding.R15_unverified_claim;
               file = anchor_file e.Safeos_core.Registry.name;
               line = 1;
               col = 0;
               func = "";
               message =
                 Fmt.str
                   "subsystem %s claims Verified but registers no krefine harness \
                    (Kharness.harness ~name ~subsystem)"
                   e.Safeos_core.Registry.name;
             }
         else None)

(* Coverage rows --------------------------------------------------------- *)

type coverage_row = {
  cov_harness : string;
  cov_subsystem : string;
  cov_ops : int;
  cov_states : int;
  cov_crash_points : int;
  cov_crash_images : int;
  cov_skipped : int;
  cov_divergences : int;
  cov_deepest : int;
  cov_fingerprint : string;
}

let row_to_line c =
  Fmt.str
    "harness %s subsystem %s ops %d states %d crash_points %d crash_images %d skipped %d \
     divergences %d deepest %d fingerprint %s"
    c.cov_harness c.cov_subsystem c.cov_ops c.cov_states c.cov_crash_points
    c.cov_crash_images c.cov_skipped c.cov_divergences c.cov_deepest c.cov_fingerprint

let row_of_line line =
  let rec pairs = function
    | [] -> Some []
    | k :: v :: rest -> Option.map (fun t -> (k, v) :: t) (pairs rest)
    | [ _ ] -> None
  in
  let ( let* ) = Option.bind in
  let* kvs = pairs (String.split_on_char ' ' (String.trim line)) in
  let str k = List.assoc_opt k kvs in
  let int k = Option.bind (str k) int_of_string_opt in
  let* cov_harness = str "harness" in
  let* cov_subsystem = str "subsystem" in
  let* cov_ops = int "ops" in
  let* cov_states = int "states" in
  let* cov_crash_points = int "crash_points" in
  let* cov_crash_images = int "crash_images" in
  let* cov_skipped = int "skipped" in
  let* cov_divergences = int "divergences" in
  let* cov_deepest = int "deepest" in
  let* cov_fingerprint = str "fingerprint" in
  Some
    {
      cov_harness;
      cov_subsystem;
      cov_ops;
      cov_states;
      cov_crash_points;
      cov_crash_images;
      cov_skipped;
      cov_divergences;
      cov_deepest;
      cov_fingerprint;
    }

let coverage_header = "# krefine coverage: one harness per line"

let save_coverage path rows =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (coverage_header ^ "\n");
      List.iter (fun r -> output_string oc (row_to_line r ^ "\n")) rows)

let coverage = { Kparse.what = "refine coverage"; of_line = row_of_line }

(* The coverage ratchet -------------------------------------------------- *)

(* Aggregate floor the tree must stay above: refinement coverage, like
   the safety ladder itself, only moves forward. *)
type floor = {
  min_harnesses : int;
  min_ops : int;
  min_states : int;
  min_crash_images : int;
}

let floor_of_rows rows =
  {
    min_harnesses = List.length rows;
    min_ops = List.fold_left (fun a r -> a + r.cov_ops) 0 rows;
    min_states = List.fold_left (fun a r -> a + r.cov_states) 0 rows;
    min_crash_images = List.fold_left (fun a r -> a + r.cov_crash_images) 0 rows;
  }

let floor_to_string f =
  Fmt.str
    "# krefine coverage ratchet: minimums the refine stage must reach; grow-only\n\
     harnesses %d\nops %d\nstates %d\ncrash_images %d\n"
    f.min_harnesses f.min_ops f.min_states f.min_crash_images

let floor_of_string s =
  let kvs =
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.split_on_char ' ' line with
             | [ k; v ] -> Some (k, int_of_string_opt v)
             | _ -> Some (line, None))
  in
  let get k =
    match List.assoc_opt k kvs with
    | Some (Some n) -> Ok n
    | Some None -> Error (Fmt.str "bad value for %s" k)
    | None -> Error ("missing " ^ k)
  in
  let ( let* ) = Result.bind in
  let* min_harnesses = get "harnesses" in
  let* min_ops = get "ops" in
  let* min_states = get "states" in
  let* min_crash_images = get "crash_images" in
  Ok { min_harnesses; min_ops; min_states; min_crash_images }

let load_floor path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> floor_of_string (really_input_string ic (in_channel_length ic)))

let save_floor path f =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (floor_to_string f))

(* (metric, have, floor) for every dimension below the baseline;
   [progress] lists dimensions strictly above it (regenerate to lock the
   gain in). *)
let compare_floor ~baseline current =
  let dims =
    [
      ("harnesses", current.min_harnesses, baseline.min_harnesses);
      ("ops", current.min_ops, baseline.min_ops);
      ("states", current.min_states, baseline.min_states);
      ("crash_images", current.min_crash_images, baseline.min_crash_images);
    ]
  in
  ( List.filter (fun (_, have, want) -> have < want) dims,
    List.filter (fun (_, have, want) -> have > want) dims )
