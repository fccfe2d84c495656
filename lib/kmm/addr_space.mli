(** Address spaces: vmas, demand paging, copy-on-write fork.

    The typed virtual-memory stack the paper's conclusion asks for.
    {!read}/{!write} are the software MMU: they walk pages, fault them in
    on demand (anonymous pages zeroed, file pages filled through the
    modular VFS interface), and break copy-on-write on stores.  All file
    mappings are private: stores never reach the file. *)

type prot = {
  pr_read : bool;
  pr_write : bool;
}

val prot_rw : prot
val prot_ro : prot

type backing =
  | Anon
  | File of {
      inst : Kvfs.Iface.instance;
      path : Kspec.Fs_spec.path;
      offset : int;  (** byte offset of the mapping's first page *)
    }

type vma = {
  va_start : int;
  va_pages : int;
  mutable vprot : prot;
  vbacking : backing;
}

type stats = {
  mutable minor_faults : int;  (** anonymous zero-fill faults *)
  mutable file_faults : int;  (** pages filled from the VFS *)
  mutable cow_breaks : int;  (** shared frames copied on write *)
}

type t

val create : Phys.t -> t
val page_size : t -> int

val mmap : t -> ?addr:int -> len:int -> prot:prot -> backing -> int Ksim.Errno.r
(** Map [len] bytes (rounded up to pages); returns the chosen page-aligned
    address.  [EINVAL] on bad arguments, [EEXIST] when a fixed [addr]
    overlaps an existing mapping. *)

val munmap : t -> addr:int -> unit Ksim.Errno.r
(** Unmap the vma starting exactly at [addr]; releases its frames. *)

val mprotect : t -> addr:int -> prot -> unit Ksim.Errno.r
(** Change the protection of the vma starting exactly at [addr]. *)

val read : t -> addr:int -> len:int -> string Ksim.Errno.r
(** [EFAULT] on unmapped or non-readable ranges; faults pages in. *)

val write : t -> addr:int -> string -> unit Ksim.Errno.r
(** [EFAULT] on unmapped or non-writable ranges; breaks copy-on-write. *)

val fork : t -> t
(** Clone the address space; every resident frame becomes shared
    copy-on-write between parent and child. *)

val destroy : t -> unit
(** Release every resident frame (process exit). *)

val resident_pages : t -> int
val stats : t -> stats
