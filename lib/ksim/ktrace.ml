(* Bounded in-memory ring of typed events.  A producer records values;
   nothing is formatted on the way in, and a reader gets the values
   back. *)

type 'a t = {
  capacity : int;
  buf : 'a Queue.t;
  mutable total : int;
}

let create ?(capacity = 4096) () = { capacity; buf = Queue.create (); total = 0 }

let emit t event =
  t.total <- t.total + 1;
  Queue.push event t.buf;
  if Queue.length t.buf > t.capacity then ignore (Queue.pop t.buf)

let events t = List.of_seq (Queue.to_seq t.buf)
let total t = t.total

let clear t =
  Queue.clear t.buf;
  t.total <- 0
