(* The kernel's component registry.

   Every subsystem is registered with its interface descriptor, current
   safety level, and (for mountable components) a live instance.  Callers
   obtain components by name and interface only — never by concrete
   module — which is what makes one-at-a-time replacement possible. *)

type kind =
  | File_system
  | Network
  | Block
  | Memory
  | Scheduler
  | Other of string

let kind_to_string = function
  | File_system -> "file-system"
  | Network -> "network"
  | Block -> "block"
  | Memory -> "memory"
  | Scheduler -> "scheduler"
  | Other s -> s

type entry = {
  name : string;
  kind : kind;
  level : Level.t;
  iface : Interface.t;
  loc : int; (* implementation size, for the Figure-1 audit *)
  description : string;
  instance : Kvfs.Iface.instance option; (* live state for mountable components *)
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable history : change list; (* newest first *)
}

and change =
  | Registered
  | Replaced
  | Rejected

let create () = { entries = Hashtbl.create 16; history = [] }
let log t change = t.history <- change :: t.history

let history t = List.rev t.history

exception Incompatible of string

let register t ~name ~kind ~level ~iface ?(loc = 0) ?(description = "") ?instance () =
  if Hashtbl.mem t.entries name then raise (Incompatible (name ^ ": already registered"));
  if not (Interface.admits iface level) then
    raise (Incompatible (Fmt.str "%s: interface %s cannot host level %a" name
                           iface.Interface.iface_name Level.pp level));
  let entry = { name; kind; level; iface; loc; description; instance } in
  Hashtbl.replace t.entries name entry;
  log t Registered;
  entry

let find t name = Hashtbl.find_opt t.entries name

let find_exn t name =
  match find t name with
  | Some e -> e
  | None -> invalid_arg ("Registry: unknown component " ^ name)

let all t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> String.compare a.name b.name)

let by_kind t kind = List.filter (fun e -> e.kind = kind) (all t)

(* Replace a component's implementation.  The replacement must speak a
   compatible interface and must not lower the safety level — the
   incremental ratchet. *)
let replace t ~name ~level ~iface ?loc ?description ?instance () =
  let current = find_exn t name in
  if not (Interface.compatible ~provided:iface ~required:current.iface) then begin
    log t Rejected;
    Error (`Incompatible_interface (current.iface.Interface.iface_name, iface.Interface.iface_name))
  end
  else if Level.rank level < Level.rank current.level then begin
    log t Rejected;
    Error (`Would_lower_level (current.level, level))
  end
  else if not (Interface.admits iface level) then begin
    log t Rejected;
    Error (`Interface_cannot_host level)
  end
  else begin
    let entry =
      {
        current with
        level;
        iface;
        loc = Option.value loc ~default:current.loc;
        description = Option.value description ~default:current.description;
        instance = (match instance with Some _ -> instance | None -> current.instance);
      }
    in
    Hashtbl.replace t.entries name entry;
    log t Replaced;
    Ok entry
  end

let level_counts t =
  List.fold_left
    (fun acc e ->
      let n = try List.assoc e.level acc with Not_found -> 0 in
      (e.level, n + 1) :: List.remove_assoc e.level acc)
    [] (all t)
  |> List.sort (fun (a, _) (b, _) -> Level.compare a b)

let total_loc t = List.fold_left (fun acc e -> acc + e.loc) 0 (all t)

let loc_at_or_above t level =
  List.fold_left
    (fun acc e -> if Level.( >= ) e.level level then acc + e.loc else acc)
    0 (all t)

let pp_entry ppf e =
  Fmt.pf ppf "%-16s %-12s %-14s %6d LoC  %s" e.name (kind_to_string e.kind)
    (Level.to_string e.level) e.loc e.description

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_entry) (all t)
