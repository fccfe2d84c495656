(** The generic socket layer in the two shapes the paper contrasts
    (§4.1/§4.2): {!Typed} — protocols as first-class modules behind
    {!PROTO}, their state invisible to the generic layer — and
    {!Dyn_style} — per-socket state as a void pointer that every
    operation casts back (the representation priced by bench
    [typesafety/*]). *)

module type PROTO = sig
  type conn

  val proto_name : string
  val create : unit -> conn

  val connect_pair : conn -> conn -> unit Ksim.Errno.r
  (** Drive both endpoints to an established state over a loopback link. *)

  val send : conn -> string -> int Ksim.Errno.r

  val deliver : src:conn -> dst:conn -> unit
  (** Move pending traffic between the endpoints until quiescent. *)

  val received : conn -> string
  val is_connected : conn -> bool
end

module Tcp_proto : PROTO with type conn = Tcp.t
module Dgram_proto : PROTO with type conn = string Queue.t

(** Modular socket layer: a protocol registry and existential pairs. *)
module Typed : sig
  type pair

  val protocols : unit -> string list

  val socket_pair : string -> pair Ksim.Errno.r
  (** A fresh endpoint pair for the named protocol ([EINVAL] unknown). *)

  val connect : pair -> unit Ksim.Errno.r
  val send : pair -> string -> int Ksim.Errno.r
  val deliver : pair -> unit
  val received_at_peer : pair -> string
  val is_connected : pair -> bool
end

(** C-style socket layer: void-pointer private data, cast on every op. *)
module Dyn_style : sig
  type socket

  val socket : string -> socket Ksim.Errno.r
  (** ["tcp"] or ["dgram"]. *)

  val mismatched_socket : unit -> socket
  (** The bug generator: TCP ops over dgram private data.  Any operation
      on it answers [EPROTO]-shaped failures (empty reads,
      disconnected status) instead of oopsing. *)

  val send : socket -> string -> int Ksim.Errno.r
  val received : socket -> string
  val is_connected : socket -> bool
  val connect_tcp_pair : socket -> socket -> unit Ksim.Errno.r
  val deliver_tcp : src:socket -> dst:socket -> unit
end

(** The modular layer behind a {!Ksim.Supervisor} oops firewall, with
    generation-stamped socket handles.

    A handle records the epoch current when it was minted; after the
    layer microreboots, operations on the old handle answer [ESTALE]
    (the protocol state it points into belongs to the dead generation)
    and a fresh {!Supervised.socket_pair} reaches the new one.  When
    [fp] is given, every operation consults the failpoint site
    ["sock.module-panic"]; a firing raises {!Ksim.Supervisor.Module_panic}
    through the layer, which the firewall contains to an errno. *)
module Supervised : sig
  type t
  type handle

  val panic_site : string

  val create :
    ?policy:Ksim.Supervisor.policy ->
    ?stats:Ksim.Kstats.t ->
    ?fp:Ksim.Failpoint.t ->
    name:string ->
    unit ->
    t

  val supervisor : t -> Ksim.Supervisor.t

  val socket_pair : t -> string -> handle Ksim.Errno.r
  (** A fresh endpoint pair stamped with the current epoch. *)

  val connect : t -> handle -> unit Ksim.Errno.r

  val rpc : t -> handle -> string -> string Ksim.Errno.r
  (** One request/response round trip (send, deliver, read back the
      peer's accumulated bytes) as a single supervised operation — the
      request/response primitive the load harness drives.  [ESTALE] on a
      dead-generation handle, [EIO]/[EINTR] under containment like every
      other operation. *)
end
