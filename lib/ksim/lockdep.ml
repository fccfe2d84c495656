(* Lock-order validation, in the spirit of the kernel's lockdep.

   Data races are only half of the concurrency story the roadmap worries
   about; the other half is deadlock from inconsistent lock ordering.
   Lockdep records, per thread, the stack of held locks, builds the
   global acquired-while-holding graph, and reports a potential deadlock
   the moment an acquisition would close a cycle — on the first run of
   any interleaving, not only the unlucky one that actually deadlocks. *)

type warning = {
  acquiring : string;
  cycle : string list; (* acquiring :: path back to acquiring *)
}

type t = {
  (* edge A -> B: some thread acquired B while holding A *)
  edges : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  held : (int, string list ref) Hashtbl.t; (* per-tid held stack, innermost first *)
  mutable warnings : warning list;
}

let create () = { edges = Hashtbl.create 16; held = Hashtbl.create 8; warnings = [] }

let successors t a =
  match Hashtbl.find_opt t.edges a with
  | Some tbl -> Hashtbl.fold (fun b () acc -> b :: acc) tbl []
  | None -> []

let add_edge t a b =
  let tbl =
    match Hashtbl.find_opt t.edges a with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace t.edges a tbl;
        tbl
  in
  Hashtbl.replace tbl b ()

(* Path from [src] back to [dst] through the order graph, if any. *)
let find_path t ~src ~dst =
  let visited = Hashtbl.create 16 in
  let rec dfs node path =
    if String.equal node dst then Some (List.rev (node :: path))
    else if Hashtbl.mem visited node then None
    else begin
      Hashtbl.replace visited node ();
      List.find_map (fun next -> dfs next (node :: path)) (successors t node)
    end
  in
  dfs src []

let held_stack t tid =
  match Hashtbl.find_opt t.held tid with
  | Some stack -> stack
  | None ->
      let stack = ref [] in
      Hashtbl.replace t.held tid stack;
      stack

let lock_acquired t ~name =
  let tid = Kthread.self () in
  let stack = held_stack t tid in
  List.iter
    (fun held_name ->
      if not (String.equal held_name name) then begin
        (* Before recording held -> name, see whether name already reaches
           held: if so this acquisition inverts an established order. *)
        (match find_path t ~src:name ~dst:held_name with
        | Some path ->
            t.warnings <- { acquiring = name; cycle = path @ [ name ] } :: t.warnings
        | None -> ());
        add_edge t held_name name
      end)
    !stack;
  stack := name :: !stack

let lock_released t ~name =
  let tid = Kthread.self () in
  let stack = held_stack t tid in
  let rec remove_first = function
    | [] -> []
    | x :: rest -> if String.equal x name then rest else x :: remove_first rest
  in
  stack := remove_first !stack

let warnings t = List.rev t.warnings
let warning_count t = List.length t.warnings

let edge_count t = Hashtbl.fold (fun _ tbl acc -> acc + Hashtbl.length tbl) t.edges 0

(* The observed graph, serialized: one (held, acquired) pair per edge,
   deterministically ordered so dumps diff cleanly. *)
let edges t =
  Hashtbl.fold
    (fun a tbl acc -> Hashtbl.fold (fun b () acc -> (a, b) :: acc) tbl acc)
    t.edges []
  |> List.sort_uniq compare

let dump_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph lockdep {\n";
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  %S -> %S;\n" a b))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* A process-wide instance, mirroring the kernel's single lockdep.  Its
   graph is the runtime export's "lockdep" records: kracer checks its
   static lock-order graph against everything a run actually observed. *)
let global = create ()

let () = Export.register "lockdep" (fun () -> List.map (fun (a, b) -> [ a; b ]) (edges global))
