(* The retrying block layer: bounded attempts with deterministic
   exponential backoff on a simulated clock.

   Transient errors (EIO, EAGAIN, ENOMEM) are retried up to
   [max_attempts] total attempts, sleeping base * 2^(attempt-1) simulated
   nanoseconds (capped) between attempts; the clock is a plain counter so
   runs are exactly reproducible.  Non-transient errors (EINVAL, ...)
   fail immediately without burning budget.  When the budget is exhausted
   the op gets a *permanent* verdict: the error propagates to the caller
   and [permanent_failures] increments.  The file system above reacts to
   the error itself (Journalfs latches read-only on a persistent EIO).

   [jitter] decorrelates concurrent retriers: each backoff sleep is
   stretched by a draw from the instance's own SplitMix64 stream
   (derived from [seed]), up to [jitter * backoff] extra ns, so two
   instances facing the same fault schedule do not retry in lockstep.
   The stream is per-instance and seeded, so [simulated_ns] stays
   exactly replayable. *)

type t = {
  base : Io.t;
  max_attempts : int;
  backoff_base : int;
  backoff_cap : int;
  jitter : float;
  rng : Ksim.Rng.t;
  mutable clock : int; (* simulated ns slept in backoff *)
  mutable ops : int;
  mutable retries : int;
  mutable recovered_ops : int;
  mutable permanent_failures : int;
}

let create ?(max_attempts = 4) ?(backoff_base = 100) ?(backoff_cap = 10_000) ?(jitter = 0.0)
    ?(seed = 0) base =
  if max_attempts < 1 then invalid_arg "Resilient.create: max_attempts";
  if jitter < 0.0 || jitter > 1.0 then invalid_arg "Resilient.create: jitter";
  {
    base;
    max_attempts;
    backoff_base;
    backoff_cap;
    jitter;
    rng = Ksim.Rng.of_int seed;
    clock = 0;
    ops = 0;
    retries = 0;
    recovered_ops = 0;
    permanent_failures = 0;
  }

let transient = function
  | Ksim.Errno.EIO | Ksim.Errno.EAGAIN | Ksim.Errno.ENOMEM -> true
  | _ -> false

let backoff t attempt =
  let base = min t.backoff_cap (t.backoff_base * (1 lsl min (attempt - 1) 20)) in
  (* Seeded jitter: the draw comes from this instance's own stream, so
     it is replayable yet different across instances with distinct
     seeds — concurrent retriers spread out instead of stampeding. *)
  let spread = int_of_float (t.jitter *. float_of_int base) in
  if spread > 0 then base + Ksim.Rng.int t.rng (spread + 1) else base

let run t f =
  t.ops <- t.ops + 1;
  let rec go attempt =
    match f () with
    | Ok v ->
        if attempt > 1 then t.recovered_ops <- t.recovered_ops + 1;
        Ok v
    | Error e when transient e && attempt < t.max_attempts ->
        t.retries <- t.retries + 1;
        t.clock <- t.clock + backoff t attempt;
        go (attempt + 1)
    | Error e ->
        if transient e then t.permanent_failures <- t.permanent_failures + 1;
        Error e
  in
  go 1

let read t blkno = run t (fun () -> t.base.Io.read blkno)
let write t blkno data = run t (fun () -> t.base.Io.write blkno data)
let flush t = run t (fun () -> t.base.Io.flush ())
let write_fua t blkno data = run t (fun () -> Io.fua t.base blkno data)

let io t : Io.t =
  {
    Io.nblocks = t.base.Io.nblocks;
    block_size = t.base.Io.block_size;
    read = read t;
    write = write t;
    flush = (fun () -> flush t);
    write_fua = Some (write_fua t);
  }

let ops t = t.ops
let retries t = t.retries
let recovered_ops t = t.recovered_ops
let permanent_failures t = t.permanent_failures
let simulated_ns t = t.clock
