(* The oops firewall: containment at a module boundary, plus
   shadow-driver-style microreboot.

   [call] is the boundary.  An exception escaping the supervised module
   is a simulated oops: it is converted to an [EIO] result, counted, and
   the module enters recovery instead of unwinding the kernel.  Recovery
   is deferred and paid for on the supervisor's simulated clock — the
   clock advances [op_cost] ns per call, an oops arms a deadline
   [backoff_base * 2^n] ns out (capped), calls before the deadline drain
   with [EINTR], and the first call past it runs the restart function.
   A successful restart bumps the epoch, which is what invalidates
   pre-oops handles: [validate] answers [ESTALE] for any handle minted
   by a dead generation.

   Everything is a function of the call sequence, so runs replay
   bit-identically: no wall clock, no randomness. *)

exception Module_panic of string

type state =
  | Healthy
  | Oopsed
  | Restarting
  | Failed

let state_to_string = function
  | Healthy -> "healthy"
  | Oopsed -> "oopsed"
  | Restarting -> "restarting"
  | Failed -> "failed"

type policy = {
  restart_budget : int;
  backoff_base : int;
  backoff_cap : int;
  op_cost : int;
}

let default_policy =
  { restart_budget = 3; backoff_base = 200; backoff_cap = 5_000; op_cost = 100 }

(* The live counters in the optional stats table, resolved once. *)
type live = {
  l_oopses : Kstats.counter;
  l_escalations : Kstats.counter;
  l_restarts : Kstats.counter;
  l_degraded : Kstats.counter;
  l_eintr : Kstats.counter;
  l_stale : Kstats.counter;
  l_recovery : Kstats.histogram;
}

let live_of stats =
  let c name = Kstats.counter stats ("supervisor." ^ name) in
  {
    l_oopses = c "oopses";
    l_escalations = c "escalations";
    l_restarts = c "restarts";
    l_degraded = c "degraded_calls";
    l_eintr = c "eintr_aborted";
    l_stale = c "stale_handles";
    l_recovery = Kstats.histogram stats "supervisor.recovery_ns";
  }

type t = {
  name : string;
  policy : policy;
  live : live option;
  mutable restart_fn : (unit -> unit) option; (* raises when the restart fails *)
  mutable observer : (state -> state -> unit) option;
  mutable state : state;
  mutable epoch : int;
  mutable restarts : int;
  mutable oopses : int;
  mutable escalations : int;
  mutable stale_rejected : int;
  mutable eintr_aborted : int;
  mutable clock : int; (* simulated ns *)
  mutable restart_at : int; (* deadline while Oopsed *)
  mutable oops_time : int; (* clock at the last oops *)
  mutable last_recovery_ns : int;
  mutable total_recovery_ns : int;
  recovery : Hist.t; (* oops -> healthy latency of every completed microreboot *)
}

let create ?(policy = default_policy) ?stats ?restart ~name () =
  if policy.restart_budget < 0 then invalid_arg "Supervisor.create: restart_budget";
  if policy.backoff_base < 1 || policy.op_cost < 1 then
    invalid_arg "Supervisor.create: backoff/op_cost must be positive";
  {
    name;
    policy;
    live = Option.map live_of stats;
    restart_fn = restart;
    observer = None;
    state = Healthy;
    epoch = 0;
    restarts = 0;
    oopses = 0;
    escalations = 0;
    stale_rejected = 0;
    eintr_aborted = 0;
    clock = 0;
    restart_at = 0;
    oops_time = 0;
    last_recovery_ns = 0;
    total_recovery_ns = 0;
    recovery = Hist.create ();
  }

let set_restart t f = t.restart_fn <- Some f
let set_observer t f = t.observer <- Some f

let state t = t.state
let epoch t = t.epoch
let oopses t = t.oopses
let restarts t = t.restarts
let escalations t = t.escalations
let stale_rejected t = t.stale_rejected
let clock t = t.clock
let last_recovery_ns t = t.last_recovery_ns
let total_recovery_ns t = t.total_recovery_ns
let recovery t = Hist.summarize t.recovery
let recovery_hist t = t.recovery

let bump t counter = match t.live with Some l -> Kstats.bump (counter l) | None -> ()

let transition t to_state =
  let from = t.state in
  if from <> to_state then begin
    t.state <- to_state;
    Option.iter (fun f -> f from to_state) t.observer
  end

(* Exponential backoff for the (n+1)-th restart, capped. *)
let backoff t n =
  min t.policy.backoff_cap (t.policy.backoff_base * (1 lsl min n 20))

let oops t =
  t.oopses <- t.oopses + 1;
  t.oops_time <- t.clock;
  t.restart_at <- t.clock + backoff t t.restarts;
  bump t (fun l -> l.l_oopses);
  transition t Oopsed

let escalate t =
  t.escalations <- t.escalations + 1;
  bump t (fun l -> l.l_escalations);
  transition t Failed

(* The microreboot: runs at the first call past the backoff deadline.
   Budget is checked first so a module with no headroom left escalates
   instead of thrashing; a restart function that itself fails re-arms
   the backoff and burns budget like a normal restart.  [restarts] and
   its live counter count attempts, failed ones included. *)
let try_restart t =
  if t.restarts >= t.policy.restart_budget then escalate t
  else
    match t.restart_fn with
    | None -> escalate t
    | Some f ->
        transition t Restarting;
        t.restarts <- t.restarts + 1;
        bump t (fun l -> l.l_restarts);
        let restarted = match f () with () -> true | exception _ -> false in
        if restarted then begin
          t.epoch <- t.epoch + 1;
          let latency = t.clock - t.oops_time in
          t.last_recovery_ns <- latency;
          t.total_recovery_ns <- t.total_recovery_ns + latency;
          Hist.record t.recovery latency;
          (match t.live with Some l -> Kstats.record l.l_recovery latency | None -> ());
          transition t Healthy
        end
        else if t.restarts >= t.policy.restart_budget then escalate t
        else begin
          t.restart_at <- t.clock + backoff t t.restarts;
          transition t Oopsed
        end

let validate t handle_epoch =
  if handle_epoch = t.epoch then Ok ()
  else begin
    t.stale_rejected <- t.stale_rejected + 1;
    bump t (fun l -> l.l_stale);
    Error Errno.ESTALE
  end

(* [minted] is the epoch of the handle the call came through, or
   [no_handle].  It is validated inside the containment, after any
   deferred microreboot, so a stale handle misses even the call that
   performs the reboot. *)
let no_handle = -1

let run t minted f =
  match
    if minted = no_handle then f ()
    else match validate t minted with Ok () -> f () | Error e -> Error e
  with
  | result -> result
  | exception _ ->
      oops t;
      Error Errno.EIO

let enter t minted f =
  t.clock <- t.clock + t.policy.op_cost;
  match t.state with
  | Failed ->
      bump t (fun l -> l.l_degraded);
      Error Errno.EIO
  | Restarting ->
      (* A reentrant call from inside the restart function: refuse it,
         the instance is not up yet. *)
      t.eintr_aborted <- t.eintr_aborted + 1;
      bump t (fun l -> l.l_eintr);
      Error Errno.EINTR
  | Oopsed when t.clock < t.restart_at ->
      t.eintr_aborted <- t.eintr_aborted + 1;
      bump t (fun l -> l.l_eintr);
      Error Errno.EINTR
  | Oopsed -> (
      try_restart t;
      match t.state with
      | Healthy -> run t minted f
      | Failed ->
          bump t (fun l -> l.l_degraded);
          Error Errno.EIO
      | Oopsed | Restarting ->
          t.eintr_aborted <- t.eintr_aborted + 1;
          bump t (fun l -> l.l_eintr);
          Error Errno.EINTR)
  | Healthy -> run t minted f

let call t f = enter t no_handle f
let call_minted t ~minted f = enter t minted f

let pp ppf t =
  Fmt.pf ppf "%s: %s epoch=%d oopses=%d restarts=%d/%d stale=%d eintr=%d clock=%dns" t.name
    (state_to_string t.state) t.epoch t.oopses t.restarts t.policy.restart_budget
    t.stale_rejected t.eintr_aborted t.clock
