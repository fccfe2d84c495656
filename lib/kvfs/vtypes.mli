(** Linux-shaped VFS data structures.

    The inode reproduces the §4.3 sharing hazards: {!inode.i_size} is
    nominally protected by [i_lock] but "only maybe protected" — the
    {!Ksim.Klock.Guarded} cell records unlocked accesses. *)

type file_kind =
  | Regular
  | Directory

type inode = {
  ino : int;
  i_lock : Ksim.Klock.t;
  i_size : int Ksim.Klock.Guarded.cell;
}

val make_inode : unit -> inode
(** Fresh auto-numbered inode with its own
    [i_lock] (reported to {!Ksim.Lockdep.global}) and a guarded
    [i_size] cell. *)

val set_size_locked : inode -> int -> unit
(** Update the cached size.  @must_hold: i_lock *)
