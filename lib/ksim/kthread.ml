(* Deterministic cooperative scheduler built on OCaml 5 effect handlers.

   Simulated kernel threads yield explicitly (or through blocking primitives
   such as [Klock.acquire]); the scheduler picks the next runnable thread
   either round-robin or by a seeded RNG, so any interleaving-dependent bug
   is reproducible from the seed.  This is the substrate on which data-race
   and lock-discipline checks run. *)

type _ Effect.t += Yield : unit Effect.t

exception Not_in_scheduler

let current : int ref = ref 0
(* 0 denotes "outside any scheduler" (the main test thread). *)

let self () = !current

let yield () =
  if !current = 0 then () else Effect.perform Yield

type job =
  | Start of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation

type thread = {
  tid : int;
  name : string;
  mutable job : job;
}

type failure = {
  failed_tid : int;
  failed_name : string;
}

(* The runnable threads, FIFO from [head]: a ring of [len] entries whose
   capacity is a power of two.  A thread record lives as long as its
   thread, so a yield stores its continuation in it and pushes the
   record back, allocating no queue cell.  (A linked queue's cell, once
   promoted, kept every cell pushed after it alive through the next
   minor collection.) *)
type t = {
  rng : Rng.t option;
  mutable ring : thread array;
  mutable head : int;
  mutable len : int;
  mutable next_tid : int;
  mutable failures : failure list;
  mutable steps : int;
  max_steps : int;
}

exception Livelock of { steps : int }

let create ?seed ?(max_steps = 1_000_000) () =
  let rng = Option.map Rng.of_int seed in
  { rng; ring = [||]; head = 0; len = 0; next_tid = 0; failures = []; steps = 0; max_steps }

let slot t j = (t.head + j) land (Array.length t.ring - 1)

let push t th =
  if t.len = Array.length t.ring then begin
    let ring = Array.make (max 16 (2 * t.len)) th in
    for j = 0 to t.len - 1 do
      ring.(j) <- t.ring.(slot t j)
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.(slot t t.len) <- th;
  t.len <- t.len + 1

(* Remove the [i]-th runnable thread, keeping the rest in order: the
   [i] entries before it each move up one slot.  Round-robin always
   takes [i = 0]; the seeded scheduler picks [i] at random. *)
let take t i =
  let th = t.ring.(slot t i) in
  for j = i downto 1 do
    t.ring.(slot t j) <- t.ring.(slot t (j - 1))
  done;
  t.head <- slot t 1;
  t.len <- t.len - 1;
  th

let spawn t ~name f =
  t.next_tid <- t.next_tid + 1;
  push t { tid = t.next_tid; name; job = Start f };
  t.next_tid

let run t =
  let outer = !current in
  let rec schedule () =
    t.steps <- t.steps + 1;
    if t.steps > t.max_steps then raise (Livelock { steps = t.steps });
    if t.len > 0 then begin
      let th = take t (match t.rng with None -> 0 | Some rng -> Rng.int rng t.len) in
      current := th.tid;
      match th.job with
      | Start f -> Effect.Deep.match_with f () (handler th)
      | Resume k -> Effect.Deep.continue k ()
    end
  (* Built once per thread: a yield allocates only its continuation and
     the [Resume] holding it. *)
  and handler th =
    let yielded =
      Some
        (fun k ->
          th.job <- Resume k;
          push t th;
          schedule ())
    in
    {
      Effect.Deep.retc = schedule;
      exnc =
        (fun _ ->
          t.failures <- { failed_tid = th.tid; failed_name = th.name } :: t.failures;
          schedule ());
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> (yielded : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }
  in
  Fun.protect ~finally:(fun () -> current := outer) schedule

let failures t = List.rev t.failures

(* Systematic interleaving exploration: run the same concurrent program
   under many seeds and collect the distinct outcomes.  A program is
   interleaving-insensitive iff exactly one outcome appears. *)
let explore ?(seeds = 32) ~spawn_all ~observe () =
  let outcomes = Hashtbl.create 8 in
  for seed = 1 to seeds do
    let sched = create ~seed () in
    spawn_all sched;
    run sched;
    let outcome = observe (failures sched) in
    match Hashtbl.find_opt outcomes outcome with
    | Some count -> Hashtbl.replace outcomes outcome (count + 1)
    | None -> Hashtbl.replace outcomes outcome 1
  done;
  Hashtbl.fold (fun outcome count acc -> (outcome, count) :: acc) outcomes []
  |> List.sort compare
