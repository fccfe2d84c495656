(* Sparse-style lock-context annotations, the klint analogue of the
   kernel's __must_hold/__acquires/__releases.

   Annotations live in doc comments on [.ml]/[.mli] items (the compiler
   parser attaches those as [ocaml.doc] attributes, so kracer sees
   exactly what the build sees), or — mostly for fixtures — as plain
   attributes with a string payload:

     (** Updates the cached size.  @must_hold: i_lock *)
     let set_size_locked i n = ...

     let helper l = ... [@@acquires "l"]

   Grammar, per line of the doc text:

     @must_hold: lock [, lock ...]   held at entry AND exit
     @acquires:  lock [, lock ...]   taken by the function (net +1)
     @releases:  lock [, lock ...]   dropped by the function (net -1)

   Lock names are *classes*: the identifier a lock travels through
   (variable or record field, e.g. [i_lock] for [vnode.i_lock]) which by
   the naming convention is also the prefix of the runtime lock name
   before the [:instance] suffix ([i_lock:7]).  [lock_class] performs
   both collapses.

   kown's ownership contracts ride the same grammar:

     @consumes: p [, p ...]    the named parameters are freed/moved by
                               the call; the caller must not use them after
     @borrows: p [, p ...]     the named parameters are only borrowed —
                               ownership stays with the caller
     @returns_owned            the result is a fresh owned object the
                               caller must free or transfer

   kdur's durability contracts too:

     @flushes: h [, h ...]     the function issues a full barrier on the
                               named io handles (parameters or fields);
                               pending writes through them are durable at
                               return
     @durable                  every write the function acks with [Ok] is
                               on stable media at return — the fsync
                               contract
     @orders_after: h [, ...]  the function's writes are ordered after
                               whatever is pending on the named handles;
                               the *caller* keeps the flush obligation
                               (a forwarding wrapper re-exporting the
                               barrier responsibility it did not perform) *)

type t = {
  must_hold : string list;  (** held at entry and exit *)
  acquires : string list;  (** net-acquired by the function *)
  releases : string list;  (** net-released by the function *)
  consumes : string list;  (** parameters freed/moved by the call (kown) *)
  borrows : string list;  (** parameters only borrowed, never consumed (kown) *)
  returns_owned : bool;  (** result is a fresh owned object (kown) *)
  flushes : string list;  (** io handles fully flushed before return (kdur) *)
  durable : bool;  (** acked writes are on stable media at return (kdur) *)
  orders_after : string list;  (** flush obligation re-exported to the caller (kdur) *)
}

let empty =
  {
    must_hold = [];
    acquires = [];
    releases = [];
    consumes = [];
    borrows = [];
    returns_owned = false;
    flushes = [];
    durable = false;
    orders_after = [];
  }

let is_empty a =
  a.must_hold = [] && a.acquires = [] && a.releases = [] && a.consumes = []
  && a.borrows = [] && a.flushes = [] && a.orders_after = []
  && (not a.returns_owned)
  && not a.durable

let dedup l = List.sort_uniq String.compare l

let union a b =
  {
    must_hold = dedup (a.must_hold @ b.must_hold);
    acquires = dedup (a.acquires @ b.acquires);
    releases = dedup (a.releases @ b.releases);
    consumes = dedup (a.consumes @ b.consumes);
    borrows = dedup (a.borrows @ b.borrows);
    returns_owned = a.returns_owned || b.returns_owned;
    flushes = dedup (a.flushes @ b.flushes);
    durable = a.durable || b.durable;
    orders_after = dedup (a.orders_after @ b.orders_after);
  }

(* [lock_class "vnode.i_lock"] = ["i_lock"]; [lock_class "i_lock:7"] =
   [lock_class "i_lock:%d"] = ["i_lock"].  The dot collapse keys a lock
   by the field/variable carrying it; the colon/percent collapse maps
   runtime instance names (and the format strings minting them) back to
   the class. *)
let lock_class name =
  let name =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let cut sep s =
    match String.index_opt s sep with Some i -> String.sub s 0 i | None -> s
  in
  cut ':' (cut '%' name)

(* Parsing ---------------------------------------------------------------- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = ':' || c = '\''

(* Lock names after a marker: comma/space-separated identifiers, stopping
   at the first token that is not one (so prose after the list is fine). *)
let parse_names s =
  let toks =
    String.split_on_char ' ' (String.map (fun c -> if c = ',' || c = '\t' then ' ' else c) s)
    |> List.filter (fun t -> t <> "")
  in
  let rec take acc = function
    | tok :: rest when String.for_all is_ident_char tok ->
        take (lock_class tok :: acc) rest
    | _ -> List.rev acc
  in
  take [] toks

let markers =
  [
    ("@must_hold", fun a names -> { a with must_hold = dedup (names @ a.must_hold) });
    ("@acquires", fun a names -> { a with acquires = dedup (names @ a.acquires) });
    ("@releases", fun a names -> { a with releases = dedup (names @ a.releases) });
    ("@consumes", fun a names -> { a with consumes = dedup (names @ a.consumes) });
    ("@borrows", fun a names -> { a with borrows = dedup (names @ a.borrows) });
    ("@flushes", fun a names -> { a with flushes = dedup (names @ a.flushes) });
    ("@orders_after", fun a names -> { a with orders_after = dedup (names @ a.orders_after) });
  ]

(* Boolean markers take no name list; a trailing ident char means the
   token is some longer, unrelated word. *)
let boolean_markers =
  [
    ("@returns_owned", fun a -> { a with returns_owned = true });
    ("@durable", fun a -> { a with durable = true });
  ]

(* One line of doc text: "@marker: names..." (the colon is optional). *)
let parse_line acc line =
  let line = String.trim line in
  let acc =
    List.fold_left
      (fun acc (m, apply) ->
        let ml = String.length m in
        if
          String.length line >= ml
          && String.sub line 0 ml = m
          && (String.length line = ml || not (is_ident_char line.[ml]))
        then apply acc
        else acc)
      acc boolean_markers
  in
  List.fold_left
    (fun acc (marker, apply) ->
      let ml = String.length marker in
      if String.length line > ml && String.sub line 0 ml = marker then
        let rest = String.sub line ml (String.length line - ml) in
        let rest =
          let r = String.trim rest in
          if String.length r > 0 && r.[0] = ':' then String.sub r 1 (String.length r - 1)
          else r
        in
        match parse_names rest with [] -> acc | names -> apply acc names
      else acc)
    acc markers

let of_doc_text acc text =
  List.fold_left parse_line acc (String.split_on_char '\n' text)

(* Attribute extraction --------------------------------------------------- *)

let string_payload (payload : Parsetree.payload) =
  match payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let of_attributes (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      match (a.attr_name.txt, string_payload a.attr_payload) with
      | ("ocaml.doc" | "doc" | "ocaml.text"), Some s -> of_doc_text acc s
      | "must_hold", Some s -> { acc with must_hold = dedup (parse_names s @ acc.must_hold) }
      | "acquires", Some s -> { acc with acquires = dedup (parse_names s @ acc.acquires) }
      | "releases", Some s -> { acc with releases = dedup (parse_names s @ acc.releases) }
      | "consumes", Some s -> { acc with consumes = dedup (parse_names s @ acc.consumes) }
      | "borrows", Some s -> { acc with borrows = dedup (parse_names s @ acc.borrows) }
      | "flushes", Some s -> { acc with flushes = dedup (parse_names s @ acc.flushes) }
      | "orders_after", Some s ->
          { acc with orders_after = dedup (parse_names s @ acc.orders_after) }
      (* [@@returns_owned] / [@@durable] carry no payload: an empty structure. *)
      | "returns_owned", _ -> { acc with returns_owned = true }
      | "durable", _ -> { acc with durable = true }
      | _ -> acc)
    empty attrs

(* Diagnostics: every "@word" token in a doc text that looks like one of
   our markers but is not in the grammar — the typo'd [@must_hol:] that
   would otherwise silently weaken a contract.  Standard odoc tags are
   excluded so ordinary API docs stay quiet. *)
let known_markers =
  List.map fst markers
  @ List.map fst boolean_markers
  @ [
      (* odoc's own tags, not ours to diagnose *)
      "@param"; "@raise"; "@raises"; "@return"; "@returns"; "@see"; "@since";
      "@before"; "@deprecated"; "@author"; "@version"; "@canonical"; "@inline";
      "@open"; "@closed";
    ]

let unknown_markers text =
  let tokens line =
    String.split_on_char ' '
      (String.map (fun c -> if c = '\t' then ' ' else c) (String.trim line))
    |> List.filter (fun t -> t <> "")
  in
  String.split_on_char '\n' text
  |> List.concat_map tokens
  |> List.filter_map (fun tok ->
         if String.length tok < 2 || tok.[0] <> '@' then None
         else
           let word =
             match String.index_opt tok ':' with
             | Some i -> String.sub tok 0 i
             | None -> tok
           in
           if
             String.for_all is_ident_char (String.sub word 1 (String.length word - 1))
             && not (List.mem word known_markers)
           then Some word
           else None)
  |> dedup
