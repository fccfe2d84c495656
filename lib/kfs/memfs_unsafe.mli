(** The "C-style" in-memory file system — roadmap step 0.

    Deliberately uses the unsafe idioms the paper catalogues: manually
    managed content cells ({!Ksim.Kmem}), void-pointer private data
    between [write_begin]/[write_end], error-pointer returns, and
    sometimes-unlocked [i_size] updates.  {!faults} switches latent bugs
    of each class on; with all faults off the module is functionally
    correct, so the fault-injection experiment measures {e which roadmap
    step would have prevented what}. *)

type faults = {
  mutable use_after_free : bool;
      (** unlink frees the content but leaves the dentry dangling *)
  mutable double_free : bool;  (** unlink frees the content twice *)
  mutable memory_leak : bool;  (** unlink forgets to free the content *)
  mutable wrong_cast : bool;
      (** write_end casts its private void* to another component's type *)
  mutable missing_errptr_check : bool;
      (** read dereferences lookup's return without IS_ERR *)
  mutable skip_i_lock : bool;  (** i_size updated without holding i_lock *)
  mutable off_by_one : bool;  (** read drops the last byte: a semantic bug *)
}

val no_faults : unit -> faults

type fs

val mkfs : unit -> fs
val mkfs_with_faults : faults -> fs

val heap : fs -> Ksim.Kmem.t
(** The allocator, for observing UAF / double-free / leak events. *)

val races : fs -> int
(** Unlocked [i_size] accesses recorded so far, summed over the live
    files (the [skip_i_lock] fault's races). *)

(** The step-0 calling convention (error pointers, void*, int returns). *)
module Legacy : Kvfs.Iface.FS_OPS_LEGACY with type fs = fs

(** Step 1 applied to this module: the same code behind the modular
    interface. *)
module Modular : Kvfs.Iface.FS_OPS with type fs = fs
