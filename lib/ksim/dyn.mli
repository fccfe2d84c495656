(** Dynamically typed values simulating C [void *] payloads.

    Linux interfaces (e.g. VFS [write_begin]/[write_end], socket protocol
    private data) pass custom data as void pointers and rely on the callee
    casting them back.  [Dyn] reproduces the idiom: values are injected
    under a typed {!Key.t} and recovered either with the checked
    {!project} or the "C-style" {!cast_exn}, which raises
    {!Type_confusion} on mismatch — the runtime analogue of dereferencing a
    wrongly cast pointer (cf. CVE-2020-12351 discussed in the paper). *)

exception
  Type_confusion of {
    expected : string;  (** the key name the caller asked to cast to *)
    actual : string;  (** the key name the value was injected under *)
  }

exception Null_dereference
(** Raised when dereferencing {!null} or an error pointer. *)

module Key : sig
  type 'a t
  (** A type witness naming one kind of private data. *)

  val create : name:string -> 'a t
  (** [create ~name] mints a fresh key.  Two keys never compare equal, even
      with the same [name]. *)
end

type t
(** A dynamically typed value ("void pointer"). *)

val null : t
val is_null : t -> bool

val inject : 'a Key.t -> 'a -> t
(** [inject key v] wraps [v] as an untyped value tagged by [key]. *)

val project : 'a Key.t -> t -> 'a option
(** Checked downcast: [None] on tag mismatch or null. *)

val cast_exn : 'a Key.t -> t -> 'a
(** Unchecked "C-style" downcast.
    @raise Type_confusion on tag mismatch.
    @raise Null_dereference on {!null}. *)

(** Kernel error-pointer convention ([ERR_PTR]/[PTR_ERR]/[IS_ERR]): a
    function returns either a pointer or an error encoded in pointer space,
    and the caller must remember to check. *)
module Errptr : sig
  type dyn := t

  type t =
    | Ptr of dyn
    | Err of Errno.t

  val of_ptr : dyn -> t
  val of_err : Errno.t -> t

  val is_err : t -> bool
  (** [IS_ERR]: true when the value encodes an error. *)

  val ptr_err : t -> int
  (** [PTR_ERR]: the errno number hidden in the pointer (0 for real
      pointers).  Like in C, calling this on a valid pointer is a caller
      bug that yields a meaningless value rather than an exception. *)

  val deref : t -> dyn
  (** Dereference.  @raise Null_dereference when applied to an error
      pointer — the simulated kernel oops. *)

  val to_result : t -> dyn Errno.r
  (** The safe decoding used by post-step-2 (type-safe) modules. *)

  val pp : Format.formatter -> t -> unit
end
