(** Copying message-passing channel — the strict-isolation baseline.

    The paper's three sharing models are "semantically equivalent to
    message-passing interfaces but share memory for performance"; this is
    the copying implementation they are benchmarked against. *)

type t

val create : unit -> t

val send : t -> bytes -> unit
(** Enqueue a {e copy} of the payload; the sender keeps its buffer. *)

val recv : t -> bytes option

val call : t -> bytes -> f:(bytes -> bytes) -> bytes
(** One round-trip: send a copy, let the callee compute a reply, copy the
    reply back.  Two payload copies — the cost the sharing models avoid. *)

val pending : t -> int

val bytes_copied : t -> int
(** Total payload bytes copied so far (both directions). *)
