(* Nothing in lib/ is exported or kept that nothing uses.  Reads the
   typed trees of every unit under lib/, bin/, test/, bench/, examples/
   and perfbench/ and fails on

   - a [val] of a lib/ interface with no user outside its own [.ml]
     (used nowhere: delete it; used only at home: drop it from the
     [.mli]);
   - a top-level binding of an interface-less lib/ file that nothing
     uses, its own file included;
   - an optional parameter of either that no call site passes;
   - a record field declared in lib/ that nothing reads.

   A use is an identifier whose declaration is the value, or a binding
   operator ([let*]) that names it.  A reference from inside a binding's
   own body (recursion) is not a use.

   A read of a field is a [r.f] outside the right-hand side of an
   assignment to that same field (so [t.n <- t.n + 1] is no read), or a
   record pattern that binds it to anything but [_].  Building a record
   and copying one with [{ r with ... }] read nothing. *)

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
    ( "lib/kfs/memfs_unsafe.ml: fs.dangling",
      "the R8 specimen: the use-after-free klint.baseline carries is the \
       write into this field" );
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

(* A field is named by the location of its declaration, which is what
   every use of it carries ([lbl_loc]). *)
let field_key (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

(* declarations of the fields something reads *)
let read : (string * int, unit) Hashtbl.t = Hashtbl.create 1024

let use source vd =
  let k = key vd in
  let l = Option.value (Hashtbl.find_opt users k) ~default:[] in
  if not (List.mem source l) then Hashtbl.replace users k (source :: l)

let scan_impl source str =
  let self = ref [] in
  (* the fields whose assignment's right-hand side the scan is in *)
  let assigning = ref [] in
  let read_field (l : Types.label_description) =
    let k = field_key l.lbl_loc in
    if not (List.mem k !assigning) then Hashtbl.replace read k ()
  in
  let expr sub e =
    match e.exp_desc with
    | Texp_setfield (r, _, l, v) ->
        sub.Tast_iterator.expr sub r;
        let saved = !assigning in
        assigning := field_key l.lbl_loc :: saved;
        sub.expr sub v;
        assigning := saved
    | desc ->
        (match desc with
        | Texp_field (_, _, l) -> read_field l
        | Texp_ident (path, _, vd) -> (
            match path with
            | Path.Pident id when List.exists (Ident.same id) !self -> ()
            | _ -> use source vd)
        | Texp_letop { let_; ands; _ } ->
            List.iter (fun b -> use source b.bop_op_val) (let_ :: ands)
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
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) ->
        List.iter (fun (_, l, p) -> match p.pat_desc with Tpat_any -> () | _ -> read_field l) fields
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
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
  let it = { Tast_iterator.default_iterator with expr; pat; structure_item } in
  it.structure it str

(* The items of an interface, into nested [sig ... end] modules only: a
   module typed by a named module type ([Map.S], a functor's result)
   declares nothing of its own.  [f path item] gets each item with the
   path of the module that holds it. *)
let rec sig_walk prefix (sg : signature) f =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_module
          {
            md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _;
          } ->
          sig_walk (prefix @ [ name ]) sg f
      | _ -> f prefix item)
    sg.sig_items

(* The items of an implementation, into nested [struct ... end] modules
   only: [f path str item] also gets the structure that holds the item.
   A constrained nested module names each item twice: inside its body,
   and through its signature, whose items go to [g]. *)
let rec str_walk prefix (str : structure) f g =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; _ } -> (
          let prefix = prefix @ [ name ] in
          match mb_expr.mod_desc with
          | Tmod_structure s -> str_walk prefix s f g
          | Tmod_constraint
              ( { mod_desc = Tmod_structure s; _ },
                _,
                Tmodtype_explicit { mty_desc = Tmty_signature sg; _ },
                _ ) ->
              str_walk prefix s f g;
              sig_walk prefix sg g
          | _ -> ())
      | _ -> f prefix str item)
    str.str_items

(* The [val]s of an interface and the top-level bindings of an
   implementation, as [f path decl]. *)
let sig_value f prefix item =
  match item.sig_desc with Tsig_value vd -> f (prefix @ [ vd.val_name.txt ]) vd.val_val | _ -> ()

let sig_values sg f = sig_walk [] sg (sig_value f)

let str_values str f =
  str_walk [] str
    (fun prefix str item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          let decl id =
            List.find_map
              (function
                | Types.Sig_value (id', vd, _) when Ident.same id id' -> Some vd | _ -> None)
              str.str_type
          in
          List.iter
            (fun id -> Option.iter (f (prefix @ [ Ident.name id ])) (decl id))
            (let_bound_idents vbs)
      | _ -> ())
    (sig_value f)

(* The record fields of a type declaration, inline records included:
   [f path decl] with [path] ending in the type (and the constructor,
   for an inline record) and the field. *)
let decl_fields f prefix (td : type_declaration) =
  let fields prefix = List.iter (fun ld -> f (prefix @ [ ld.ld_name.txt ]) ld) in
  let prefix = prefix @ [ td.typ_name.txt ] in
  match td.typ_kind with
  | Ttype_record lds -> fields prefix lds
  | Ttype_variant cds ->
      List.iter
        (fun cd ->
          match cd.cd_args with
          | Cstr_record lds -> fields (prefix @ [ cd.cd_name.txt ]) lds
          | Cstr_tuple _ -> ())
        cds
  | Ttype_abstract | Ttype_open -> ()

(* The record fields a unit declares, in its interface and its
   implementation. *)
let unit_fields (u : Cmt_scan.unit_) f =
  let sig_field prefix item =
    match item.sig_desc with Tsig_type (_, tds) -> List.iter (decl_fields f prefix) tds | _ -> ()
  in
  let str_field prefix _ item =
    match item.str_desc with Tstr_type (_, tds) -> List.iter (decl_fields f prefix) tds | _ -> ()
  in
  Option.iter (fun str -> str_walk [] str str_field sig_field) u.impl;
  Option.iter (fun sg -> sig_walk [] sg sig_field) u.intf

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
  unread : string list;  (** record fields nothing reads *)
  vals : int;  (** interface vals seen *)
  fields : int;  (** record fields seen *)
}

let verdict =
  List.iter (fun u -> Option.iter (scan_impl u.Cmt_scan.source) u.impl) units;
  let dead = ref [] and home_only = ref [] and unused_top = ref [] and unpassed = ref [] in
  let vals = ref 0 and unread = ref [] and fields = ref 0 in
  let users_of vd = Option.value (Hashtbl.find_opt users (key vd)) ~default:[] in
  List.iter
    (fun (u : Cmt_scan.unit_) ->
      if in_lib u then begin
        (* a field an interface repeats is read if either declaration is *)
        let decls = Hashtbl.create 64 in
        unit_fields u (fun path ld ->
            let locs = Option.value (Hashtbl.find_opt decls path) ~default:[] in
            Hashtbl.replace decls path (ld.ld_loc :: locs));
        Hashtbl.iter
          (fun path locs ->
            incr fields;
            if not (List.exists (fun loc -> Hashtbl.mem read (field_key loc)) locs) then
              unread := Printf.sprintf "%s: %s" u.source (String.concat "." path) :: !unread)
          decls;
        let impl = Hashtbl.create 64 in
        Option.iter (fun str -> str_values str (fun p vd -> Hashtbl.add impl p vd)) u.impl;
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
            sig_values sg (fun path vd ->
                incr vals;
                judge file path vd ~exported:true)
        | None ->
            (* a name bound twice is judged once, by its last binding *)
            Option.iter
              (fun str ->
                str_values str (fun path vd ->
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
    unread = !unread;
    vals = !vals;
    fields = !fields;
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
  Alcotest.(check bool) "lib/ record fields read" true (verdict.fields > 500);
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

let test_fields () = check_none [ ("record fields nothing reads", verdict.unread) ]

let test_allowlist () =
  let all =
    verdict.dead @ verdict.home_only @ verdict.unused_top @ verdict.unpassed @ verdict.unread
  in
  List.iter
    (fun (name, reason) ->
      (* "unused" restates the finding; a reason says why it stays *)
      if List.mem (String.lowercase_ascii (String.trim reason)) [ ""; "unused"; "documentation" ]
      then Alcotest.failf "%s: allowlisted without a reason" name;
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
          Alcotest.test_case "every lib/ record field is read" `Quick test_fields;
          Alcotest.test_case "allowlist entries are needed and give a reason" `Quick
            test_allowlist;
        ] );
    ]
