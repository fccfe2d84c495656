(* Named counters and latency histograms, used by benches, the load
   harness, and the audit tooling. *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
  mutable generation : int; (* bumped by [reset]: handles re-resolve *)
}

let create () : t = { counters = Hashtbl.create 16; hists = Hashtbl.create 4; generation = 0 }

let find_counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let incr ?(by = 1) t name =
  let r = find_counter t name in
  r := !r + by

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.replace t.hists name h;
      h

let observe t name v = Hist.record (hist t name) v

(* Handles: the name is hashed once, at the handle's first bump in each
   generation of the table (creation does not register it, so a handle
   never bumped leaves the table as it was). *)
type 'a handle = {
  stats : t;
  name : string;
  find : t -> string -> 'a;
  mutable cell : 'a option;
  mutable gen : int;
}

type counter = int ref handle
type histogram = Hist.t handle

let handle stats name find = { stats; name; find; cell = None; gen = -1 }
let counter t name = handle t name find_counter
let histogram t name = handle t name hist

let resolve h =
  match h.cell with
  | Some c when h.gen = h.stats.generation -> c
  | _ ->
      let c = h.find h.stats h.name in
      h.cell <- Some c;
      h.gen <- h.stats.generation;
      c

let bump ?(by = 1) h =
  let r = resolve h in
  r := !r + by

let record h v = Hist.record (resolve h) v

let hists t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Histograms flatten into the counter namespace as derived entries, so
   snapshots (and their diffs) carry percentile aggregates without a
   second representation. *)
let hist_entries t =
  List.concat_map
    (fun (name, h) ->
      let s = Hist.summarize h in
      [
        (name ^ "#count", s.Hist.count);
        (name ^ "#min", s.Hist.min);
        (name ^ "#mean", int_of_float s.Hist.mean);
        (name ^ "#p50", s.Hist.p50);
        (name ^ "#p99", s.Hist.p99);
        (name ^ "#max", s.Hist.max);
      ])
    (hists t)

let to_list t =
  let counters = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters [] in
  counters @ hist_entries t
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A snapshot is just the sorted counter list; [diff] pairs two of them
   so tests can assert exact per-phase deltas instead of absolute values
   that drift as instrumentation is added elsewhere. *)
type snapshot = (string * int) list

let snapshot = to_list

let diff ~before ~after =
  let base name = match List.assoc_opt name before with Some v -> v | None -> 0 in
  List.filter_map
    (fun (name, v) ->
      let d = v - base name in
      if d = 0 then None else Some (name, d))
    after

let delta ~before ~after name =
  let get l = match List.assoc_opt name l with Some v -> v | None -> 0 in
  get after - get before

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.hists;
  t.generation <- t.generation + 1
