(** Overlayfs-shaped union file system built purely on the modular
    interface: a writable upper layer over a read-only lower layer, with
    ".wh.<name>" whiteout files recording deletions of lower entries,
    copy-up on mutation, and [EXDEV] on directory rename (as overlayfs
    itself without redirect_dir). *)

include Kvfs.Iface.FS_OPS

val make : upper:Kvfs.Iface.instance -> lower:Kvfs.Iface.instance -> fs
(** Union of two already-populated layers.  [mkfs] is [make] over two
    fresh {!Memfs_typed} instances. *)

val lower : fs -> Kvfs.Iface.instance

val is_whiteout_name : string -> bool
