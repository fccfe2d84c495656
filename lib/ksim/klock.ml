(* Simulated kernel locks with discipline checking.

   Locks are cooperative: [acquire] spins by yielding to the scheduler until
   the holder releases.  The checker part records the events that, in real
   Linux, only vigilant code review catches: self-deadlock, releasing a lock
   one does not hold, and — through [Guarded] cells — accessing data without
   holding its protecting lock (the i_size / i_lock pattern from the
   paper's section 4.3). *)

exception Self_deadlock of string
exception Not_holder of string
exception Data_race of { cell : string; lock : string }

type t = {
  name : string;
  mutable holder : int option;
  mutable contentions : int;
  lockdep : Lockdep.t option;
}

let create ?lockdep ~name () = { name; holder = None; contentions = 0; lockdep }

let try_acquire lock =
  let tid = Kthread.self () in
  match lock.holder with
  | None ->
      lock.holder <- Some tid;
      (match lock.lockdep with
      | Some dep -> Lockdep.lock_acquired dep ~name:lock.name
      | None -> ());
      true
  | Some holder when holder = tid -> raise (Self_deadlock lock.name)
  | Some _ -> false

let acquire lock =
  let rec spin first =
    if not (try_acquire lock) then begin
      if first then lock.contentions <- lock.contentions + 1;
      if Kthread.self () = 0 then
        (* Outside the scheduler there is nobody to release the lock. *)
        raise (Self_deadlock lock.name);
      Kthread.yield ();
      spin false
    end
  in
  spin true

let release lock =
  let tid = Kthread.self () in
  match lock.holder with
  | Some holder when holder = tid ->
      lock.holder <- None;
      (match lock.lockdep with
      | Some dep -> Lockdep.lock_released dep ~name:lock.name
      | None -> ())
  | Some _ | None -> raise (Not_holder lock.name)

let held_by_self lock =
  match lock.holder with Some holder -> holder = Kthread.self () | None -> false

let held lock = Option.is_some lock.holder
let contentions lock = lock.contentions

let with_lock lock f =
  acquire lock;
  match f () with
  | v ->
      release lock;
      v
  | exception exn ->
      release lock;
      raise exn

module Guarded = struct
  type 'a cell = {
    cell_name : string;
    lock : t;
    mutable value : 'a;
    mutable races : int;
    strict : bool;
  }

  let create ?(strict = false) ~lock ~name value =
    { cell_name = name; lock; value; races = 0; strict }

  let record_race cell =
    cell.races <- cell.races + 1;
    if cell.strict then raise (Data_race { cell = cell.cell_name; lock = cell.lock.name })

  let check cell = if not (held_by_self cell.lock) then record_race cell

  let get cell =
    check cell;
    cell.value

  let set cell value =
    check cell;
    cell.value <- value

  (* The "C" accessor: no discipline check at all.  Used by unsafe modules
     to model code paths that simply forget the lock. *)
  let unsafe_get cell = cell.value

  let races cell = cell.races
end
