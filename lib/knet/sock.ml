(* The generic socket layer, in the two shapes the paper contrasts.

   Linux "supports multiple protocol families and multiple protocols
   within those families", yet "references to TCP state can be found
   throughout generic socket code".  [Typed] is the modular shape: a
   protocol is a first-class module behind the PROTO interface, and the
   generic layer cannot see its state.  [Dyn_style] is the C shape: the
   per-socket state is a void pointer every operation must project back —
   nowadays through the checked [Frame.Priv] slots (a mismatch is an
   [EPROTO], not an oops), the representation the type-safety bench
   prices against [Typed]. *)

module type PROTO = sig
  type conn

  val proto_name : string
  val create : unit -> conn

  val connect_pair : conn -> conn -> unit Ksim.Errno.r
  (** Drive both endpoints to an established state over a loopback link. *)

  val send : conn -> string -> int Ksim.Errno.r
  val deliver : src:conn -> dst:conn -> unit
  (** Move pending traffic from [src] to [dst] (and replies back). *)

  val received : conn -> string
  val is_connected : conn -> bool
end

module Tcp_proto : PROTO with type conn = Tcp.t = struct
  type conn = Tcp.t

  let proto_name = "tcp"
  let create () = Tcp.create ()

  let connect_pair a b =
    let ( let* ) = Ksim.Errno.( let* ) in
    let* () = Tcp.listen b in
    let* () = Tcp.connect a in
    let (_ : int) = Tcp.run_link a b in
    if Tcp.state a = Tcp.Established && Tcp.state b = Tcp.Established then Ok ()
    else Error Ksim.Errno.EPIPE

  let send = Tcp.send
  let deliver ~src ~dst = ignore (Tcp.run_link src dst)
  let received = Tcp.received
  let is_connected conn = Tcp.state conn = Tcp.Established
end

(* A connectionless datagram protocol: the second family member, proving
   the generic layer really is generic. *)
module Dgram_proto : PROTO with type conn = string Queue.t = struct
  type conn = string Queue.t

  let proto_name = "dgram"
  let create () = Queue.create ()
  let connect_pair _ _ = Ok ()

  let send conn data =
    Queue.push data conn;
    Ok (String.length data)

  let deliver ~src ~dst = Queue.transfer src dst
  let received conn = String.concat "" (List.of_seq (Queue.to_seq conn))
  let is_connected _ = true
end

(* The modular layer ------------------------------------------------------- *)

module Typed = struct
  (* A connected pair keeps both endpoints under the same existential, so
     the generic layer can move traffic between them without ever learning
     the protocol's state type. *)
  type pair = Pair : (module PROTO with type conn = 'c) * 'c * 'c -> pair

  type registry = (string, (module PROTO)) Hashtbl.t

  let registry : registry = Hashtbl.create 8

  let register (module P : PROTO) = Hashtbl.replace registry P.proto_name (module P : PROTO)

  let () =
    register (module Tcp_proto);
    register (module Dgram_proto)

  let protocols () =
    Hashtbl.fold (fun name _ acc -> name :: acc) registry [] |> List.sort String.compare

  let socket_pair proto_name =
    match Hashtbl.find_opt registry proto_name with
    | Some (module P : PROTO) -> Ok (Pair ((module P), P.create (), P.create ()))
    | None -> Error Ksim.Errno.EINVAL

  let connect (Pair ((module P), a, b)) = P.connect_pair a b
  let send (Pair ((module P), a, _)) data = P.send a data
  let deliver (Pair ((module P), a, b)) = P.deliver ~src:a ~dst:b
  let received_at_peer (Pair ((module P), _, b)) = P.received b
  let is_connected (Pair ((module P), a, b)) = P.is_connected a && P.is_connected b
end

(* The C-style layer: private data behind a void pointer ------------------- *)

module Dyn_style = struct
  type ops = {
    o_send : Ksim.Frame.Priv.t -> string -> int Ksim.Errno.r;
    o_received : Ksim.Frame.Priv.t -> string;
    o_is_connected : Ksim.Frame.Priv.t -> bool;
  }

  type socket = {
    ops : ops;
    private_data : Ksim.Frame.Priv.t;
  }

  let tcp_slot : Tcp.t Ksim.Frame.Priv.slot = Ksim.Frame.Priv.slot ~name:"sock.tcp_conn"

  let dgram_slot : string Queue.t Ksim.Frame.Priv.slot =
    Ksim.Frame.Priv.slot ~name:"sock.dgram_conn"

  (* Every operation unwraps the void pointer back through the checked
     [Frame.Priv] slot (this subsystem is fully migrated off [cast_exn]
     and, since the framekernel refactor, off direct [Dyn] too): a socket
     whose ops and private data disagree fails with [EPROTO] — the
     driver-returned-garbage errno — or reads as empty/disconnected,
     instead of oopsing the way the step-0 cast did. *)
  let tcp_ops =
    {
      o_send =
        (fun d data ->
          match Ksim.Frame.Priv.unwrap tcp_slot d with
          | Some conn -> Tcp.send conn data
          | None -> Error Ksim.Errno.EPROTO);
      o_received =
        (fun d ->
          match Ksim.Frame.Priv.unwrap tcp_slot d with
          | Some conn -> Tcp.received conn
          | None -> "");
      o_is_connected =
        (fun d ->
          match Ksim.Frame.Priv.unwrap tcp_slot d with
          | Some conn -> Tcp.state conn = Tcp.Established
          | None -> false);
    }

  let dgram_ops =
    {
      o_send =
        (fun d data ->
          match Ksim.Frame.Priv.unwrap dgram_slot d with
          | Some q ->
              Queue.push data q;
              Ok (String.length data)
          | None -> Error Ksim.Errno.EPROTO);
      o_received =
        (fun d ->
          match Ksim.Frame.Priv.unwrap dgram_slot d with
          | Some q -> String.concat "" (List.of_seq (Queue.to_seq q))
          | None -> "");
      o_is_connected = (fun _ -> true);
    }

  let socket proto_name =
    match proto_name with
    | "tcp" ->
        Ok
          { ops = tcp_ops; private_data = Ksim.Frame.Priv.wrap tcp_slot (Tcp.create ()) }
    | "dgram" ->
        Ok
          { ops = dgram_ops; private_data = Ksim.Frame.Priv.wrap dgram_slot (Queue.create ()) }
    | _ -> Error Ksim.Errno.EINVAL

  (* The bug generator: build a socket whose ops and private data
     disagree, as happens when generic code copies fields around. *)
  let mismatched_socket () =
    { ops = tcp_ops; private_data = Ksim.Frame.Priv.wrap dgram_slot (Queue.create ()) }

  let send sock data = sock.ops.o_send sock.private_data data
  let received sock = sock.ops.o_received sock.private_data
  let is_connected sock = sock.ops.o_is_connected sock.private_data

  let connect_tcp_pair a b =
    match
      ( Ksim.Frame.Priv.unwrap tcp_slot a.private_data,
        Ksim.Frame.Priv.unwrap tcp_slot b.private_data )
    with
    | Some ca, Some cb -> Tcp_proto.connect_pair ca cb
    | _ -> Error Ksim.Errno.EINVAL

  let deliver_tcp ~src ~dst =
    match
      ( Ksim.Frame.Priv.unwrap tcp_slot src.private_data,
        Ksim.Frame.Priv.unwrap tcp_slot dst.private_data )
    with
    | Some ca, Some cb -> Tcp_proto.deliver ~src:ca ~dst:cb
    | _ -> ()
end

(* The supervised layer: the modular shape behind an oops firewall ---------- *)

module Supervised = struct
  (* Socket handles are generation-stamped the same way fds are: a handle
     minted before a microreboot answers [ESTALE] afterwards, because the
     protocol state it points into belongs to the dead generation.  The
     layer itself holds no cross-handle state, so its restart function
     just opens a new generation — exactly the shadow-driver observation
     that a network driver can be restarted behind live applications,
     which then learn about it through their stale handles. *)

  let panic_site = "sock.module-panic"

  type handle = {
    pair : Typed.pair;
    minted : int;
  }

  type t = {
    sup : Ksim.Supervisor.t;
    panic : (Ksim.Failpoint.t * Ksim.Failpoint.site) option;
  }

  let create ?policy ?stats ?fp ~name () =
    let sup = Ksim.Supervisor.create ?policy ?stats ~name () in
    Ksim.Supervisor.set_restart sup Fun.id;
    { sup; panic = Option.map (fun fp -> (fp, Ksim.Failpoint.register fp panic_site)) fp }

  let supervisor t = t.sup

  let maybe_panic t =
    match t.panic with
    | Some (fp, site) when Ksim.Failpoint.fire fp site ->
        raise (Ksim.Supervisor.Module_panic panic_site)
    | _ -> ()

  let socket_pair t proto =
    Ksim.Supervisor.call t.sup (fun () ->
        maybe_panic t;
        match Typed.socket_pair proto with
        | Ok pair -> Ok { pair; minted = Ksim.Supervisor.epoch t.sup }
        | Error e -> Error e)

  let guarded t h f =
    Ksim.Supervisor.call_minted t.sup ~minted:h.minted (fun () ->
        maybe_panic t;
        f h.pair)

  let connect t h = guarded t h Typed.connect

  (* One request/response round trip as a single supervised operation:
     the shape a load-generating tenant drives in a tight loop.  Running
     send+deliver+readback inside one containment thunk means an oops
     anywhere in the exchange is one EIO (and one epoch check), not
     three. *)
  let rpc t h data =
    guarded t h (fun pair ->
        let ( let* ) = Ksim.Errno.( let* ) in
        let* _sent = Typed.send pair data in
        Typed.deliver pair;
        Ok (Typed.received_at_peer pair))
end
