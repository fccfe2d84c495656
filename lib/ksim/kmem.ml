(* Simulated manual kernel allocator.

   Objects live in a heap that tracks their lifecycle so that the classic C
   memory bugs — use-after-free, double-free, leaks — are observable events
   rather than silent corruption.  Unsafe modules (roadmap step 0/1) manage
   object lifetimes through this allocator; ownership-safe modules (step 3)
   route the same allocations through capability checks in [Ownership]. *)

exception Use_after_free of { site : string; id : int }
exception Double_free of { site : string; id : int }

type 'a state =
  | Live of 'a
  | Freed

type 'a ptr = {
  id : int;
  site : string;
  mutable state : 'a state;
  heap : t;
}

and t = {
  mutable next_id : int;
  mutable allocated : int;
  mutable freed : int;
  mutable uaf_events : int;
  mutable double_free_events : int;
  live : (int, string) Hashtbl.t; (* id -> allocation site, for leak reports *)
  events : events;
  strict : bool; (* raise on violation instead of just counting *)
}

(* A heap's name and event tables: what its runtime export records are
   read from at exit, kept apart from the heap's live table. *)
and events = {
  name : string;
  uaf_sites : (string, int) Hashtbl.t; (* allocation site -> uaf count *)
  double_free_sites : (string, int) Hashtbl.t;
  mutable reported_leaks : (string * int) list; (* last [leaks] snapshot, per site *)
  mutable exported : bool;
}

let create ?(strict = true) ~name () =
  {
    next_id = 0;
    allocated = 0;
    freed = 0;
    uaf_events = 0;
    double_free_events = 0;
    live = Hashtbl.create 64;
    events =
      { name; uaf_sites = Hashtbl.create 8; double_free_sites = Hashtbl.create 8;
        reported_leaks = []; exported = false };
    strict;
  }

let sorted_sites tbl = Hashtbl.fold (fun s n acc -> (s, n) :: acc) tbl [] |> List.sort compare

(* One "kmem" record per aggregated event: event, heap, site, count. *)
let event_rows ev =
  let rows event = List.map (fun (site, n) -> [ event; ev.name; site; string_of_int n ]) in
  rows "uaf" (sorted_sites ev.uaf_sites)
  @ rows "double_free" (sorted_sites ev.double_free_sites)
  @ rows "leak" ev.reported_leaks

(* A heap that records an event while the export is on hands its event
   tables to it, once.  Tables, never heaps: a heap pins every live
   allocation. *)
let export_events ev =
  if (not ev.exported) && Export.on () then begin
    ev.exported <- true;
    Export.register "kmem" (fun () -> event_rows ev)
  end

let bump heap tbl site =
  export_events heap.events;
  Hashtbl.replace tbl site (1 + Option.value ~default:0 (Hashtbl.find_opt tbl site))

let alloc heap ~site value =
  heap.next_id <- heap.next_id + 1;
  heap.allocated <- heap.allocated + 1;
  let id = heap.next_id in
  Hashtbl.replace heap.live id site;
  { id; site; state = Live value; heap }

let use_after_free ptr =
  ptr.heap.uaf_events <- ptr.heap.uaf_events + 1;
  bump ptr.heap ptr.heap.events.uaf_sites ptr.site;
  if ptr.heap.strict then raise (Use_after_free { site = ptr.site; id = ptr.id })

let read ptr =
  match ptr.state with
  | Live v -> v
  | Freed ->
      use_after_free ptr;
      (* Non-strict mode models "reading freed memory returns garbage" by
         failing anyway: there is no garbage value of type ['a] to hand
         back, so even a lenient heap cannot continue past a read. *)
      raise (Use_after_free { site = ptr.site; id = ptr.id })

let write ptr value =
  match ptr.state with
  | Live _ -> ptr.state <- Live value
  | Freed -> use_after_free ptr

let free ptr =
  match ptr.state with
  | Live _ ->
      ptr.state <- Freed;
      ptr.heap.freed <- ptr.heap.freed + 1;
      Hashtbl.remove ptr.heap.live ptr.id
  | Freed ->
      ptr.heap.double_free_events <- ptr.heap.double_free_events + 1;
      bump ptr.heap ptr.heap.events.double_free_sites ptr.site;
      if ptr.heap.strict then raise (Double_free { site = ptr.site; id = ptr.id })

let is_live ptr = match ptr.state with Live _ -> true | Freed -> false
let live_count heap = Hashtbl.length heap.live
let allocated heap = heap.allocated
let freed heap = heap.freed
let uaf_events heap = heap.uaf_events
let double_free_events heap = heap.double_free_events

type leak = { leak_id : int; leak_site : string }

(* Per-site aggregation of still-live objects — the granularity the
   static/runtime reconciliation keys on (kown findings are per-file,
   runtime events per allocation site). *)
let site_counts l =
  List.fold_left
    (fun acc { leak_site; _ } ->
      (leak_site, 1 + Option.value ~default:0 (List.assoc_opt leak_site acc))
      :: List.remove_assoc leak_site acc)
    [] l
  |> List.sort compare

let leaks heap =
  let l =
    Hashtbl.fold (fun leak_id leak_site acc -> { leak_id; leak_site } :: acc) heap.live []
    |> List.sort (fun a b -> compare a.leak_id b.leak_id)
  in
  (* A leak only exists once somebody asked at a quiescence point —
     live objects at process exit are normal — so the export snapshot
     records what the last report actually said. *)
  heap.events.reported_leaks <- site_counts l;
  if l <> [] then export_events heap.events;
  l
