(** The type-confusion case study (CVE-2020-12351 shape, §4.2).

    Packets arrive on numbered channels; {!Unsafe} parses them into
    [Dyn] void pointers keyed by what the {e header} claims and dispatches
    by what the {e channel registry} says, so a lying header triggers
    {!Ksim.Dyn.Type_confusion} — the simulated kernel crash.  {!Typed} is
    the step-2 rewrite where the mismatch is an ordinary [EPROTO]. *)

type channel_kind =
  | Control
  | Data

type control_block = {
  op : int;
  flags : int;
}

type data_payload = { body : string }

exception Malformed of string

val encode_control : channel:int -> control_block -> string
val encode_data : channel:int -> data_payload -> string

val claimed_kind : string -> channel_kind
(** What the packet header claims. @raise Malformed on garbage. *)

module Unsafe : sig
  type t

  val create : unit -> t
  val register : t -> channel:int -> channel_kind -> unit

  val receive : t -> string -> unit Ksim.Errno.r
  (** @raise Ksim.Dyn.Type_confusion when the header's claimed kind
      disagrees with the channel's registered kind. *)

  val control_ops : t -> int list
  val data_bytes : t -> int
end

module Typed : sig
  type t

  val create : unit -> t
  val register : t -> channel:int -> channel_kind -> unit

  val receive : t -> string -> unit Ksim.Errno.r
  (** A header/registry mismatch is [EPROTO]; no crash is possible. *)

  val control_ops : t -> int list
  val data_bytes : t -> int
end

val confusion_packet : control_channel:int -> string -> string
(** The attack: a Data-kind packet addressed to a Control channel. *)
