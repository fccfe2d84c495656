(* Copying message-passing channel: the strict-isolation baseline.

   Microkernel-style interfaces copy payloads across the boundary.  The
   paper's three sharing models are "semantically equivalent to message
   passing but share memory for performance"; this module is the
   semantically equivalent copying implementation used as the baseline in
   bench [ownership/*]. *)

type t = {
  queue : bytes Queue.t;
  mutable bytes_copied : int;
}

let create () = { queue = Queue.create (); bytes_copied = 0 }

let send ch payload =
  (* The copy is the point: the sender retains its buffer, the receiver
     gets an isolated one. *)
  let copy = Bytes.copy payload in
  Queue.push copy ch.queue;
  ch.bytes_copied <- ch.bytes_copied + Bytes.length payload

let recv ch = Queue.take_opt ch.queue

let call ch payload ~f =
  send ch payload;
  match recv ch with
  | None -> assert false (* we just sent *)
  | Some received ->
      let reply = f received in
      let reply_copy = Bytes.copy reply in
      ch.bytes_copied <- ch.bytes_copied + Bytes.length reply;
      reply_copy

let pending ch = Queue.length ch.queue
let bytes_copied ch = ch.bytes_copied
