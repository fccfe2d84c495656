(** Linux-shaped VFS data structures.

    The inode reproduces the §4.3 sharing hazards: {!inode.i_size} is
    nominally protected by [i_lock] but "only maybe protected" — the
    {!Ksim.Klock.Guarded} cell records unlocked accesses; [i_private] is
    the void-pointer payload file systems stash custom data in (§4.2). *)

type file_kind =
  | Regular
  | Directory

type inode = {
  ino : int;
  mutable kind : file_kind;
  i_lock : Ksim.Klock.t;
  i_size : int Ksim.Klock.Guarded.cell;
  mutable i_nlink : int;
  mutable i_version : int;
  mutable i_private : Ksim.Frame.Priv.t;  (** fs-private data, void*-style *)
}

val make_inode : file_kind -> inode
(** Fresh auto-numbered inode with its own
    [i_lock] (reported to {!Ksim.Lockdep.global}) and a guarded
    [i_size] cell. *)

val set_size_locked : inode -> int -> unit
(** Update the cached size.  @must_hold: i_lock *)

type dentry = {
  d_name : string;
  d_inode : inode;
}

type file = {
  f_inode : inode;
  mutable f_pos : int;
  f_writable : bool;
}
