(* Linux-shaped VFS data structures.

   The inode reproduces the sharing hazards the paper calls out in §4.3:
   [i_size] is a [Klock.Guarded] cell nominally protected by [i_lock] but
   "only maybe protected, according to the relevant comment" — unsafe file
   systems poke it through the unchecked accessors. *)

type file_kind =
  | Regular
  | Directory

type inode = {
  ino : int;
  i_lock : Ksim.Klock.t;
  i_size : int Ksim.Klock.Guarded.cell;
}

let next_ino = ref 1

let make_inode () =
  incr next_ino;
  let ino = !next_ino in
  let i_lock =
    (* wired to the global lock-order validator so every i_lock nesting
       the tests exercise lands in the runtime graph kracer reconciles
       its static graph against *)
    Ksim.Klock.create ~lockdep:Ksim.Lockdep.global
      ~name:(Printf.sprintf "i_lock:%d" ino) ()
  in
  {
    ino;
    i_lock;
    i_size = Ksim.Klock.Guarded.create ~lock:i_lock ~name:(Printf.sprintf "i_size:%d" ino) 0;
  }

(* The annotated i_size writer — the checked counterpart of the
   "only maybe protected" comment the paper quotes.  The @must_hold
   contract is what kracer propagates interprocedurally: a caller any
   number of hops up must provably hold [i_lock] or R6 fires. *)

(** Update the cached size.  @must_hold: i_lock *)
let set_size_locked i size = Ksim.Klock.Guarded.set i.i_size size
