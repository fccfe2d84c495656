(* State-machine refinement checking at scale (verified-betrfs mold).

   The spec side is always [Fs_spec]; a low machine supplies its own
   state, an interpretation function and its own invariant, and the
   enumerator discharges the proof obligations executably at every step
   of a trace:

     init  ⊢ Inv            and   interp (init ()) = empty
     Inv ∧ step ⊢ Inv'      and   the commuting square refines
     crash ⊢ recovery lands inside the crash-safe frontier

   [Inv v] is [M.inv v ∧ Fs_spec.wf (interp v)]: the machine's invariant
   is about its own state, well-formedness is about the spec state, and
   the checker interprets each state once and checks both on it (the
   split of verified-betrfs's [Inv] and [I(s)]).

   The crash frontier is the incremental form of
   [Fs_spec.Crash_safe.allowed_recoveries]: the volatile states reached
   since the last [Fsync] (the fsync-point state included), reset to the
   freshly-synced state at each [Fsync].  Keeping it incrementally makes
   crash checking over 10k-op traces linear instead of quadratic; when
   the bounded frontier overflows we *skip and count* rather than guess,
   so an alarm is always a real divergence.

   The Fsync window.  A crash image taken at an [Fsync] may come from an
   instant before the fsync returned — a write-back disk's window still
   holds the fsync's own barrier epochs — and losing the unsynced batch
   there is legal.  So at an [Fsync] an image may recover to the synced
   state or to any state the frontier allowed just before the [Fsync];
   if that pre-fsync frontier had overflowed, an image outside the
   synced state is skipped and counted, as above.  An fsync that returns
   without making its batch durable is still convicted at the next crash
   point, where only the post-fsync frontier applies. *)

module type MACHINE = sig
  type vars

  val name : string
  val init : unit -> vars
  val step : vars -> Fs_spec.op -> vars * Fs_spec.result
  val interp : vars -> Fs_spec.bindings
  val inv : vars -> bool
  val crash_images : vars -> limit:int -> vars list
end

module Spec_machine = struct
  type vars = Fs_spec.state

  let name = "fs_spec"
  let init () = Fs_spec.empty
  let step st op = Fs_spec.step st op
  let interp = Fs_spec.Pathmap.bindings
  let inv _ = true
  let crash_images _ ~limit:_ = []
end

type mismatch =
  | Result_mismatch of { expected : Fs_spec.result; got : Fs_spec.result }
  | State_mismatch of { expected : Fs_spec.state; got : Fs_spec.state }
  | Invariant_violation
  | Crash_divergence of {
      image_index : int;
      recovered : Fs_spec.state;
      frontier : Fs_spec.state list;
    }

type divergence = {
  step_index : int;
  op : Fs_spec.op;
  mismatch : mismatch;
  counterexample : Fs_spec.op list;
}

let pp_mismatch ppf = function
  | Result_mismatch { expected; got } ->
      Fmt.pf ppf "result mismatch: spec %a, impl %a" Fs_spec.pp_result expected
        Fs_spec.pp_result got
  | State_mismatch _ -> Fmt.pf ppf "interpreted state diverges from spec state"
  | Invariant_violation -> Fmt.pf ppf "inductive invariant violated"
  | Crash_divergence { image_index; recovered = _; frontier } ->
      Fmt.pf ppf "crash image %d recovers outside the crash-safe frontier (%d allowed states)"
        image_index (List.length frontier)

let pp_divergence ppf d =
  Fmt.pf ppf "step %d (%a): %a [counterexample: %d ops]" d.step_index Fs_spec.pp_op d.op
    pp_mismatch d.mismatch
    (List.length d.counterexample)

type config = {
  seed : int;
  images_per_op : int;
  crash_every : int;
  frontier_limit : int;
  shrink : bool;
  max_divergences : int;
}

let default_config =
  {
    seed = 0;
    images_per_op = 8;
    crash_every = 1;
    frontier_limit = 64;
    shrink = true;
    max_divergences = 16;
  }

type coverage = {
  harness : string;
  ops : int;
  states_explored : int;
  crash_points : int;
  crash_images : int;
  skipped_images : int;
  frontier_peak : int;
  interleavings : int;
  deepest_divergence : int;
  divergences : divergence list;
}

let is_clean cov = cov.divergences = []

let pp_coverage ppf c =
  Fmt.pf ppf
    "%s: %d ops, %d states, %d crash points, %d images (%d skipped), frontier peak %d, %d \
     interleavings, %d divergences%s"
    c.harness c.ops c.states_explored c.crash_points c.crash_images c.skipped_images
    c.frontier_peak c.interleavings (List.length c.divergences)
    (if c.deepest_divergence >= 0 then Fmt.str ", deepest at step %d" c.deepest_divergence
     else "")

let coverage_fingerprint c =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Fmt.str "%s|%d|%d|%d|%d|%d|%d|%d|%d" c.harness c.ops c.states_explored c.crash_points
       c.crash_images c.skipped_images c.frontier_peak c.interleavings c.deepest_divergence);
  List.iter
    (fun d ->
      Buffer.add_string buf (Fmt.str "|%a" pp_divergence d);
      (match d.mismatch with
      | State_mismatch { expected; got } ->
          Buffer.add_string buf (Fmt.str "%a/%a" Fs_spec.pp expected Fs_spec.pp got)
      | Crash_divergence { recovered; _ } -> Buffer.add_string buf (Fmt.str "%a" Fs_spec.pp recovered)
      | Result_mismatch _ | Invariant_violation -> ());
      List.iter (fun op -> Buffer.add_string buf (Fmt.str ";%a" Fs_spec.pp_op op)) d.counterexample)
    c.divergences;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The per-state check (header comment): interpret [v] once, then [Inv v]
   and the match against [allowed] on that listing, well-formedness on
   the spec state it matched.  Only a listing that matches none is built,
   to classify it: a broken [Inv], or [differs] of its well-formed state. *)
let judge (type a) (module M : MACHINE with type vars = a) v allowed ~differs =
  let b = M.interp v in
  if not (M.inv v) then Some Invariant_violation
  else
    match List.find_opt (fun s -> Fs_spec.equal_bindings s b) allowed with
    | Some s when Fs_spec.wf s -> None
    | Some _ -> Some Invariant_violation
    | None ->
        let s = Fs_spec.of_bindings b in
        Some (if Fs_spec.wf s then differs s else Invariant_violation)

(* One lockstep step, in the order [run] and [Monitor] share: results,
   then the invariant, then the commuting square. *)
let step_mismatch (type a) (module M : MACHINE with type vars = a) ~expected ~got spec' v' =
  if not (Fs_spec.equal_result expected got) then Some (Result_mismatch { expected; got })
  else judge (module M) v' [ spec' ] ~differs:(fun got -> State_mismatch { expected = spec'; got })

(* The enumerator core.  [frontier] carries the crash-safe spec's
   allowed recovery states incrementally; see the header comment. *)
let run_raw (type a) ~config (module M : MACHINE with type vars = a) ops =
  let divergences = ref [] in
  let n_div = ref 0 in
  let record d =
    divergences := d :: !divergences;
    incr n_div
  in
  let states = ref 1 in
  let crash_points = ref 0 in
  let images_checked = ref 0 in
  let skipped = ref 0 in
  let frontier_peak = ref 1 in
  let executed = ref 0 in
  let v = ref (M.init ()) in
  let spec = ref Fs_spec.empty in
  let frontier = ref [ Fs_spec.empty ] in
  let overflowed = ref false in
  let stop = ref false in
  (* init ⊢ Inv, and the interpretation of init must be the empty map. *)
  if Option.is_some (judge (module M) !v [ Fs_spec.empty ] ~differs:(fun _ -> Invariant_violation))
  then begin
    (match ops with
    | [] -> ()
    | op :: _ ->
        record { step_index = -1; op; mismatch = Invariant_violation; counterexample = [] });
    stop := true
  end;
  let arr = Array.of_list ops in
  let i = ref 0 in
  while (not !stop) && !i < Array.length arr do
    let op = arr.(!i) in
    let spec', expected = Fs_spec.step !spec op in
    let v', got = M.step !v op in
    incr states;
    incr executed;
    (match step_mismatch (module M) ~expected ~got spec' v' with
    | Some mismatch ->
        record { step_index = !i; op; mismatch; counterexample = [] };
        stop := true
    | None -> ());
    if not !stop then begin
      let before = !frontier and before_overflowed = !overflowed in
      (* Advance the crash-safe frontier: reset at Fsync, else admit the
         new volatile state (deduplicated). *)
      (match op with
      | Fs_spec.Fsync ->
          frontier := [ spec' ];
          overflowed := false
      | _ ->
          if not (List.exists (Fs_spec.equal spec') !frontier) then begin
            frontier := !frontier @ [ spec' ];
            let len = List.length !frontier in
            if len > !frontier_peak then frontier_peak := len;
            if len > config.frontier_limit then overflowed := true
          end);
      (* Crash enumeration at this op. *)
      if config.crash_every > 0 && (!i + 1) mod config.crash_every = 0 then begin
        incr crash_points;
        let images = M.crash_images v' ~limit:config.images_per_op in
        let at_fsync = match op with Fs_spec.Fsync -> true | _ -> false in
        (* The Fsync window (header comment): at an [Fsync] the frontier
           just before it, [before], allows too, unless it overflowed. *)
        let allowed =
          if at_fsync && not before_overflowed then !frontier @ before else !frontier
        in
        if !overflowed then skipped := !skipped + List.length images
        else
          List.iteri
            (fun image_index image ->
              if !n_div < config.max_divergences then
                let differs recovered =
                  Crash_divergence
                    { image_index; recovered; frontier = (if at_fsync then before else !frontier) }
                in
                match judge (module M) image allowed ~differs with
                | Some (Crash_divergence _) when at_fsync && before_overflowed -> incr skipped
                | mismatch ->
                    incr images_checked;
                    incr states;
                    Option.iter
                      (fun mismatch ->
                        record { step_index = !i; op; mismatch; counterexample = [] })
                      mismatch)
            images
      end;
      spec := spec';
      v := v';
      incr i
    end
  done;
  let divergences = List.rev !divergences in
  let deepest =
    List.fold_left (fun acc d -> max acc d.step_index) (-1) divergences
  in
  {
    harness = M.name;
    ops = !executed;
    states_explored = !states;
    crash_points = !crash_points;
    crash_images = !images_checked;
    skipped_images = !skipped;
    frontier_peak = !frontier_peak;
    interleavings = 1;
    deepest_divergence = deepest;
    divergences;
  }

let same_kind a b =
  match (a, b) with
  | Result_mismatch _, Result_mismatch _
  | State_mismatch _, State_mismatch _
  | Invariant_violation, Invariant_violation
  | Crash_divergence _, Crash_divergence _ -> true
  | _ -> false

let take n xs = List.filteri (fun i _ -> i < n) xs

(* Greedy ddmin: drop chunk-aligned slices while a divergence of the
   same kind survives, halving the chunk until single ops. *)
let shrink (type a) ~config (module M : MACHINE with type vars = a) ops d =
  let probe = { config with shrink = false; max_divergences = 1 } in
  let fails trace =
    let cov = run_raw ~config:probe (module M) trace in
    List.exists (fun d' -> same_kind d'.mismatch d.mismatch) cov.divergences
  in
  let prefix = take (d.step_index + 1) ops in
  let remove_slice start len xs =
    List.filteri (fun i _ -> i < start || i >= start + len) xs
  in
  let rec sweep chunk trace start =
    if start >= List.length trace then trace
    else
      let cand = remove_slice start chunk trace in
      if List.length cand < List.length trace && fails cand then sweep chunk cand start
      else sweep chunk trace (start + chunk)
  in
  let rec passes chunk trace =
    if chunk < 1 then trace else passes (chunk / 2) (sweep chunk trace 0)
  in
  let n = List.length prefix in
  if n = 0 || not (fails prefix) then prefix else passes (max 1 (n / 2)) prefix

let run (type a) ?(config = default_config) (module M : MACHINE with type vars = a) ops =
  let cov = run_raw ~config (module M) ops in
  match cov.divergences with
  | [] -> cov
  | first :: rest when config.shrink ->
      let minimal = shrink ~config (module M) ops first in
      let stamp d = { d with counterexample = take (d.step_index + 1) ops } in
      {
        cov with
        divergences = { first with counterexample = minimal } :: List.map stamp rest;
      }
  | _ :: _ ->
      let stamp d = { d with counterexample = take (d.step_index + 1) ops } in
      { cov with divergences = List.map stamp cov.divergences }

exception Refinement_failure of divergence

(* A live refinement monitor: every call is checked against the spec as
   it happens. *)
module Monitor (M : MACHINE) = struct
  type t = {
    mutable vars : M.vars;
    mutable spec : Fs_spec.state;
    mutable steps : int;
  }

  let create () = { vars = M.init (); spec = Fs_spec.empty; steps = 0 }

  let apply t op =
    let spec', expected = Fs_spec.step t.spec op in
    let vars, got = M.step t.vars op in
    t.vars <- vars;
    (match step_mismatch (module M) ~expected ~got spec' vars with
    | Some mismatch ->
        raise (Refinement_failure { step_index = t.steps; op; mismatch; counterexample = [] })
    | None ->
        t.spec <- spec';
        t.steps <- t.steps + 1);
    got

  let interpret t = M.interp t.vars
  let checked_ops t = t.steps
end

(* Seeded fair merge of per-thread op streams (program order preserved
   within each stream). *)
let merge ~seed streams =
  let rng = Ksim.Rng.of_int (0x5eed + seed) in
  let arr = Array.of_list (List.map Array.of_list streams) in
  let idx = Array.map (fun _ -> 0) arr in
  let out = ref [] in
  let live () =
    let acc = ref [] in
    Array.iteri (fun k a -> if idx.(k) < Array.length a then acc := k :: !acc) arr;
    List.rev !acc
  in
  let rec go () =
    match live () with
    | [] -> ()
    | ks ->
        let k = List.nth ks (Ksim.Rng.int rng (List.length ks)) in
        out := arr.(k).(idx.(k)) :: !out;
        idx.(k) <- idx.(k) + 1;
        go ()
  in
  go ();
  List.rev !out

let explore (type a) ?(config = default_config) ~interleavings
    (module M : MACHINE with type vars = a) streams =
  let n = max 1 interleavings in
  let covs =
    List.init n (fun k ->
        let trace = merge ~seed:(config.seed + k) streams in
        run ~config:{ config with seed = config.seed + k } (module M) trace)
  in
  List.fold_left
    (fun acc c ->
      {
        harness = acc.harness;
        ops = acc.ops + c.ops;
        states_explored = acc.states_explored + c.states_explored;
        crash_points = acc.crash_points + c.crash_points;
        crash_images = acc.crash_images + c.crash_images;
        skipped_images = acc.skipped_images + c.skipped_images;
        frontier_peak = max acc.frontier_peak c.frontier_peak;
        interleavings = acc.interleavings + 1;
        deepest_divergence = max acc.deepest_divergence c.deepest_divergence;
        divergences = acc.divergences @ c.divergences;
      })
    {
      harness = M.name;
      ops = 0;
      states_explored = 0;
      crash_points = 0;
      crash_images = 0;
      skipped_images = 0;
      frontier_peak = 0;
      interleavings = 0;
      deepest_divergence = -1;
      divergences = [];
    }
    covs

(* Pure queries over the abstract state (ex-Conc helpers). *)
let count_files st =
  Fs_spec.Pathmap.fold
    (fun _ node acc -> match node with Fs_spec.File _ -> acc + 1 | Fs_spec.Dir -> acc)
    st 0

let count_dirs st =
  Fs_spec.Pathmap.fold
    (fun _ node acc -> match node with Fs_spec.Dir -> acc + 1 | Fs_spec.File _ -> acc)
    st 0

let total_bytes st =
  Fs_spec.Pathmap.fold
    (fun _ node acc ->
      match node with Fs_spec.File c -> acc + String.length c | Fs_spec.Dir -> acc)
    st 0

let max_depth st =
  Fs_spec.Pathmap.fold (fun path _ acc -> max acc (List.length path)) st 0
