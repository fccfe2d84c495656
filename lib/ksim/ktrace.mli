(** Bounded in-memory ring of typed events.

    A component that is given a ring records each event as a value of
    its own event type; readers get the values back, oldest first.
    Nothing is formatted on the way in. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Ring of at most [capacity] (default 4096) most recent events. *)

val emit : 'a t -> 'a -> unit

val events : 'a t -> 'a list
(** Retained events, oldest first. *)

val total : 'a t -> int
(** Number of events ever emitted (including evicted ones). *)

val clear : 'a t -> unit
