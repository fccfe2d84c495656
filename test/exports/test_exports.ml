(* Nothing in lib/ is exported that nothing uses.  Reads the typed trees
   of every unit under lib/, bin/, test/, bench/, examples/ and
   perfbench/ and fails on

   - a [val] of a lib/ interface with no user outside its own [.ml]
     (used nowhere: delete it; used only at home: drop it from the
     [.mli]);
   - a top-level binding of an interface-less lib/ file that nothing
     uses, its own file included;
   - an optional parameter of either that no call site passes.

   A use is an identifier whose declaration is the value, or a binding
   operator ([let*]) that names it.  A reference from inside a binding's
   own body (recursion) is not a use. *)

open Typedtree

(* Exceptions, each with the reason the value stays.  A key is
   ["<file>: <value path>"], with [" ?<label>"] for an optional
   parameter. *)
let allowlist =
  [
    ( "lib/kblock/resilient.mli: write_fua",
      "its @durable contract lives on this val; kdur reads it from the .mli" );
    ( "lib/kfs/rawlog_unsafe.mli: append",
      "its @orders_after contract lives on this val; kdur reads it from the .mli \
       and append_retry's R18 finding is judged against it" );
    ( "lib/kfs/rawlog_unsafe.mli: append_retry",
      "the R18 specimen: klint exhibit whose finding dur.baseline counts" );
    ( "lib/ksim/frame.mli: Cell.peek",
      "on the blessed frame surface that `safeos explain R12` lists, and \
       test/cli.t pins that text" );
  ]

(* dune runs a test in its own directory of the build context. *)
let units =
  Cmt_scan.load ~root:"../.." [ "lib"; "bin"; "test"; "bench"; "examples"; "perfbench" ]

let in_lib (u : Cmt_scan.unit_) = String.starts_with ~prefix:"lib/" u.source

(* A declaration is named by its file and uid: an implementation and its
   interface number their uids independently. *)
let key (vd : Types.value_description) = (vd.val_loc.loc_start.pos_fname, vd.val_uid)

(* declaration -> sources that use it *)
let users : (string * Shape.Uid.t, string list) Hashtbl.t = Hashtbl.create 4096

(* (declaration, label) of every optional argument some call passes *)
let passed : ((string * Shape.Uid.t) * string, unit) Hashtbl.t = Hashtbl.create 256

let use source vd =
  let k = key vd in
  let l = Option.value (Hashtbl.find_opt users k) ~default:[] in
  if not (List.mem source l) then Hashtbl.replace users k (source :: l)

let scan_impl source str =
  let self = ref [] in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (path, _, vd) -> (
        match path with
        | Path.Pident id when List.exists (Ident.same id) !self -> ()
        | _ -> use source vd)
    | Texp_letop { let_; ands; _ } -> List.iter (fun b -> use source b.bop_op_val) (let_ :: ands)
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
        List.iter
          (function
            (* an omitted optional argument is filled in with a [None]
               that has no location of its own *)
            | Asttypes.Optional l, Some a when a.exp_loc <> Location.none ->
                Hashtbl.replace passed (key vd, l) ()
            | _ -> ())
          args
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let structure_item sub si =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        let saved = !self in
        List.iter
          (fun vb ->
            self := pat_bound_idents vb.vb_pat;
            sub.Tast_iterator.value_binding sub vb)
          vbs;
        self := saved
    | _ -> Tast_iterator.default_iterator.structure_item sub si
  in
  let it = { Tast_iterator.default_iterator with expr; structure_item } in
  it.structure it str

(* The [val]s of an interface, into nested [sig ... end] modules only: a
   module typed by a named module type ([Map.S], a functor's result)
   declares no value of its own. *)
let rec sig_values prefix (sg : signature) f =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> f (prefix @ [ vd.val_name.txt ]) vd.val_val
      | Tsig_module
          {
            md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _;
          } ->
          sig_values (prefix @ [ name ]) sg f
      | _ -> ())
    sg.sig_items

(* The top-level bindings of an implementation, into nested [struct ...
   end] modules only.  A constrained nested module names each value
   twice: inside its body and through its signature. *)
let rec str_values prefix (str : structure) f =
  let decl id =
    List.find_map
      (function Types.Sig_value (id', vd, _) when Ident.same id id' -> Some vd | _ -> None)
      str.str_type
  in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun id -> Option.iter (f (prefix @ [ Ident.name id ])) (decl id))
            (let_bound_idents vbs)
      | Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; _ } -> (
          let prefix = prefix @ [ name ] in
          match mb_expr.mod_desc with
          | Tmod_structure s -> str_values prefix s f
          | Tmod_constraint
              ( { mod_desc = Tmod_structure s; _ },
                _,
                Tmodtype_explicit { mty_desc = Tmty_signature sg; _ },
                _ ) ->
              str_values prefix s f;
              sig_values prefix sg f
          | _ -> ())
      | _ -> ())
    str.str_items

let rec optionals ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optionals ret
  | Types.Tarrow (_, _, ret, _) -> optionals ret
  | _ -> []

type verdict = {
  dead : string list;  (** interface vals used nowhere *)
  home_only : string list;  (** interface vals used only in their own .ml *)
  unused_top : string list;  (** top-levels of interface-less files used nowhere *)
  unpassed : string list;  (** optional parameters no call passes *)
  vals : int;  (** interface vals seen *)
}

let verdict =
  List.iter (fun u -> Option.iter (scan_impl u.Cmt_scan.source) u.impl) units;
  let dead = ref [] and home_only = ref [] and unused_top = ref [] and unpassed = ref [] in
  let vals = ref 0 in
  let users_of vd = Option.value (Hashtbl.find_opt users (key vd)) ~default:[] in
  List.iter
    (fun (u : Cmt_scan.unit_) ->
      if in_lib u then begin
        let impl = Hashtbl.create 64 in
        Option.iter (fun str -> str_values [] str (fun p vd -> Hashtbl.add impl p vd)) u.impl;
        let judge file path (vd : Types.value_description) ~exported =
          let name = Printf.sprintf "%s: %s" file (String.concat "." path) in
          let homes = Hashtbl.find_all impl path in
          let outside = exported && users_of vd <> [] in
          let at_home = List.exists (fun h -> users_of h <> []) homes in
          let flag r = r := name :: !r in
          if not (outside || at_home) then flag (if exported then dead else unused_top)
          else if exported && not outside then flag home_only;
          List.iter
            (fun l ->
              if not (List.exists (fun d -> Hashtbl.mem passed (key d, l)) (vd :: homes)) then
                unpassed := Printf.sprintf "%s ?%s" name l :: !unpassed)
            (optionals vd.val_type)
        in
        match u.intf with
        | Some sg ->
            let file = Filename.chop_suffix u.source ".ml" ^ ".mli" in
            sig_values [] sg (fun path vd ->
                incr vals;
                judge file path vd ~exported:true)
        | None ->
            (* a name bound twice is judged once, by its last binding *)
            Option.iter
              (fun str ->
                str_values [] str (fun path vd ->
                    if (Hashtbl.find impl path : Types.value_description) == vd then
                      judge u.source path vd ~exported:false))
              u.impl
      end)
    units;
  {
    dead = !dead;
    home_only = !home_only;
    unused_top = !unused_top;
    unpassed = !unpassed;
    vals = !vals;
  }

let offenders l = List.filter (fun n -> not (List.mem_assoc n allowlist)) l |> List.sort compare

(* One failure naming every offender of every listed kind. *)
let check_none kinds =
  let report (what, l) =
    match offenders l with
    | [] -> None
    | l -> Some (Printf.sprintf "%d %s:\n  %s" (List.length l) what (String.concat "\n  " l))
  in
  match List.filter_map report kinds with [] -> () | r -> Alcotest.fail (String.concat "\n" r)

let test_read () =
  (* a scan that finds no typed trees passes everything; fail instead *)
  let count p = List.length (List.filter p units) in
  Alcotest.(check bool) "lib/ units read" true (count in_lib > 90);
  Alcotest.(check bool) "lib/ interfaces read" true (verdict.vals > 500);
  Alcotest.(check bool)
    "users outside lib/ read" true
    (count (fun u -> String.starts_with ~prefix:"test/" u.source) > 20)

let test_vals () =
  check_none
    [
      ("interface vals used nowhere (delete them)", verdict.dead);
      ("interface vals used only in their own .ml (drop them from the .mli)", verdict.home_only);
    ]

let test_top () =
  check_none
    [ ("top-level bindings of interface-less lib/ files used nowhere", verdict.unused_top) ]

let test_optionals () =
  check_none [ ("optional parameters that no call passes", verdict.unpassed) ]

let test_allowlist () =
  let all = verdict.dead @ verdict.home_only @ verdict.unused_top @ verdict.unpassed in
  List.iter
    (fun (name, reason) ->
      if String.trim reason = "" then Alcotest.failf "%s: allowlisted without a reason" name;
      if not (List.mem name all) then
        Alcotest.failf "%s: allowlisted but used (drop the entry)" name)
    allowlist

let () =
  Alcotest.run "exports"
    [
      ( "exports",
        [
          Alcotest.test_case "typed trees read" `Quick test_read;
          Alcotest.test_case "every interface val has a user outside its file" `Quick test_vals;
          Alcotest.test_case "every top-level of an interface-less file is used" `Quick test_top;
          Alcotest.test_case "every optional parameter is passed" `Quick test_optionals;
          Alcotest.test_case "allowlist entries are needed and give a reason" `Quick
            test_allowlist;
        ] );
    ]
