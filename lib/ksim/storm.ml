(* Storm composition over a Failpoint registry.

   The storm is pure bookkeeping: all randomness stays inside the
   registry's per-site seeded streams, so a storm adds no
   nondeterminism — it only decides *when* each site is armed and with
   what composed knobs.  [tick] re-applies a site's configuration only
   when its set of covering bursts changes (a "window boundary"); in
   between, the site's live [times] countdown drains undisturbed.  Every
   covering set is constant between two consecutive burst edges, so
   [tick] remembers the edge-free range around the last rescan and does
   nothing while [now] stays inside it. *)

type burst = {
  site : string;
  start : int;
  stop : int;
  probability : float;
  times : int;
}

type t = {
  fp : Failpoint.t;
  mutable bursts : burst list;
  (* site -> indices (into [bursts]) of the window last applied; [] for
     "disabled by us".  Absent = never touched. *)
  applied : (string, int list) Hashtbl.t;
  (* The edge-free range around the last rescan; [lo = hi] (empty)
     forces the next one. *)
  mutable lo : int;
  mutable hi : int;
}

let create ~fp () = { fp; bursts = []; applied = Hashtbl.create 8; lo = 0; hi = 0 }
let forget_range t = t.hi <- t.lo

let add t schedule =
  List.iter
    (fun b ->
      if b.stop <= b.start then invalid_arg "Storm.add: empty window";
      if b.probability < 0.0 || b.probability > 1.0 then invalid_arg "Storm.add: probability")
    schedule;
  t.bursts <-
    List.stable_sort
      (fun a b ->
        match String.compare a.site b.site with
        | 0 -> ( match compare a.start b.start with 0 -> compare a.stop b.stop | c -> c)
        | c -> c)
      (t.bursts @ schedule);
  forget_range t

let bursts t = t.bursts

let sites t =
  List.sort_uniq String.compare (List.map (fun b -> b.site) t.bursts)

let covering t site now =
  List.mapi (fun i b -> (i, b)) t.bursts
  |> List.filter (fun (_, b) -> String.equal b.site site && b.start <= now && now < b.stop)

(* Composed knobs for a covering set: independent fault sources, so
   probabilities combine as 1 - prod(1-p); finite budgets sum, an
   unlimited burst makes the window unlimited. *)
let compose cover =
  let prob = 1.0 -. List.fold_left (fun acc (_, b) -> acc *. (1.0 -. b.probability)) 1.0 cover in
  let times =
    if List.exists (fun (_, b) -> b.times < 0) cover then -1
    else List.fold_left (fun acc (_, b) -> acc + b.times) 0 cover
  in
  (prob, times)

(* The widest [[lo, hi)] around [now] with no burst start or stop in
   [(lo, hi)]: every tick in it has the covering sets of [now]. *)
let edge_free_range bursts now =
  let edge (lo, hi) e = if e <= now then (max lo e, hi) else (lo, min hi e) in
  List.fold_left (fun r b -> edge (edge r b.start) b.stop) (min_int, max_int) bursts

let tick t now =
  if now < t.lo || now >= t.hi then begin
    List.iter
      (fun site ->
        let cover = covering t site now in
        let signature = List.map fst cover in
        let last = Hashtbl.find_opt t.applied site in
        if last <> Some signature then begin
          Hashtbl.replace t.applied site signature;
          match cover with
          | [] -> Failpoint.configure t.fp site ~enabled:false ()
          | _ ->
              let probability, times = compose cover in
              Failpoint.configure t.fp site ~enabled:true ~probability ~times ()
        end)
      (sites t);
    let lo, hi = edge_free_range t.bursts now in
    t.lo <- lo;
    t.hi <- hi
  end

let disable t =
  List.iter (fun site -> Failpoint.configure t.fp site ~enabled:false ()) (sites t);
  Hashtbl.reset t.applied;
  forget_range t

let active t now =
  List.filter_map
    (fun site ->
      match covering t site now with
      | [] -> None
      | cover ->
          let probability, times = compose cover in
          Some (site, probability, times))
    (sites t)
