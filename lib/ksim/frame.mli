(** The framekernel boundary: the narrow, audited surface through which
    service modules use the unsafe substrate.

    Asterinas' framekernel argument, OCaml edition: [Dyn], raw [Kmem],
    [Bytes.unsafe_*], and bare [Klock.acquire]/[release] are the
    privileged frame's private machinery.  Everything above [lib/ksim]
    reaches them only through the wrappers below — each one line over the
    raw primitive, each documenting the contract that makes it sound — so
    the unsafe TCB stays countable and klint's ktcb pass (R12–R14) can
    enforce that no service reaches around the boundary. *)

(** Typed private-data slots: the safe face of [Dyn]'s void pointers.
    A slot is a minted key; [wrap]/[unwrap] are total, so a mismatched
    slot reads back as [None] — an [EPROTO] at worst, never an oops. *)
module Priv : sig
  type t = Dyn.t
  (** Concretely a [Dyn.t], so grandfathered step-0 exhibits can keep
      poking the representation while migrated services never have to
      mention [Dyn] again. *)

  type 'a slot

  val slot : name:string -> 'a slot
  (** Mint a fresh slot.  Two slots never compare equal, even with the
      same [name]. *)

  val wrap : 'a slot -> 'a -> t
  val unwrap : 'a slot -> t -> 'a option
end

(** Checked decoding of the kernel err-ptr convention.  [result] is the
    one blessed way out of pointer-space error encoding: callers get a
    [('a, Errno.t) result] and the type checker does the IS_ERR check
    the C convention leaves to discipline. *)
module Handle : sig
  type t = Dyn.Errptr.t

  val result : t -> Priv.t Errno.r
end

(** Zero-copy buffer hand-off across the frame boundary. *)
module Buf : sig
  val freeze : Bytes.t -> string
  (** Zero-copy view of a buffer the caller will never touch again.
      @consumes: b — ownership of [b] transfers here; mutating it
      afterwards would alias the returned string, which is exactly the
      bug the ownership rung exists to rule out. *)
end
