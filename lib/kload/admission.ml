type mode =
  | Accepting
  | Reads_only
  | Rejecting

let mode_name = function
  | Accepting -> "accepting"
  | Reads_only -> "reads-only"
  | Rejecting -> "rejecting"

type config = {
  window_ns : int;
  capacity : int;
  per_tenant_cap : int;
  hi_degrade : int;
  hi_reject : int;
  low_water : int;
}

let default_config =
  {
    window_ns = 50_000;
    capacity = 40;
    per_tenant_cap = 8;
    hi_degrade = 40;
    hi_reject = 120;
    low_water = 10;
  }

(* Mean clock advance per op is ~1.5 us (Pareto think + service cost),
   so a window offers ~window/1500 ops in the steady state; capacity at
   ~window/800 admits that comfortably and sheds only the Pareto
   clusters of near-minimum think times.  Thresholds scale with capacity
   so degradation needs a sustained overhang, not one bad window.
   Large populations get a longer window: at acceptance scale the
   steady-state estimate is smoother and per-window counters stay
   meaningful. *)
let config_for ~tenants =
  let window_ns = if tenants >= 2000 then 100_000 else 50_000 in
  let capacity = max 8 (window_ns / 800) in
  {
    window_ns;
    capacity;
    per_tenant_cap = max 4 (capacity / 8);
    hi_degrade = 2 * capacity;
    hi_reject = 6 * capacity;
    low_water = max 1 (capacity / 2);
  }

type decision =
  | Admit
  | Shed

type t = {
  cfg : config;
  mutable window_start : int;
  mutable offered : int;  (* this window *)
  mutable window_admitted : int;  (* this window *)
  mutable backlog : int;
  mutable mode : mode;
  mutable shed : int;  (* total *)
  per_tenant : int array;  (* admits this window *)
  shed_by_tenant : int array;
  mutable transitions : (int * mode) list;  (* newest first *)
}

let create ?(config = default_config) ~tenants () =
  {
    cfg = config;
    window_start = 0;
    offered = 0;
    window_admitted = 0;
    backlog = 0;
    mode = Accepting;
    shed = 0;
    per_tenant = Array.make (max 1 tenants) 0;
    shed_by_tenant = Array.make (max 1 tenants) 0;
    transitions = [];
  }

let set_mode t ~now m =
  if t.mode <> m then begin
    t.mode <- m;
    t.transitions <- (now, m) :: t.transitions
  end

(* Window rollover: unadmitted demand becomes backlog, admitted demand
   drains it, and the mode follows the backlog through the hysteresis
   band.  [now] may be several windows ahead (a tenant slept through a
   long Pareto think time); idle windows drain backlog at full
   capacity. *)
let roll t ~now =
  while now - t.window_start >= t.cfg.window_ns do
    let overhang = t.offered - t.cfg.capacity in
    t.backlog <- max 0 (t.backlog + overhang);
    t.offered <- 0;
    t.window_admitted <- 0;
    Array.fill t.per_tenant 0 (Array.length t.per_tenant) 0;
    t.window_start <- t.window_start + t.cfg.window_ns;
    let m =
      if t.backlog >= t.cfg.hi_reject then Rejecting
      else if t.backlog >= t.cfg.hi_degrade then
        (* Entering degradation is one-way per window; recovery goes
           through the low-water mark. *)
        if t.mode = Rejecting then Rejecting else Reads_only
      else if t.backlog <= t.cfg.low_water then Accepting
      else t.mode
    in
    set_mode t ~now:t.window_start m
  done

let offer t ~now ~tenant ~read_only =
  roll t ~now;
  t.offered <- t.offered + 1;
  let tix = tenant mod Array.length t.per_tenant in
  let refuse () =
    t.shed <- t.shed + 1;
    t.shed_by_tenant.(tix) <- t.shed_by_tenant.(tix) + 1;
    Shed
  in
  let mode_admits =
    match t.mode with
    | Accepting -> true
    | Reads_only -> read_only
    | Rejecting -> false
  in
  if not mode_admits then refuse ()
  else if t.window_admitted >= t.cfg.capacity then refuse ()
  else if t.per_tenant.(tix) >= t.cfg.per_tenant_cap then refuse ()
  else begin
    t.window_admitted <- t.window_admitted + 1;
    t.per_tenant.(tix) <- t.per_tenant.(tix) + 1;
    Admit
  end

let mode t = t.mode
let backlog t = t.backlog
let shed t = t.shed
let shed_of_tenant t i = t.shed_by_tenant.(i mod Array.length t.shed_by_tenant)
let transitions t = List.rev t.transitions
