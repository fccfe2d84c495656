(** Supervised block I/O: a {!Ksim.Supervisor} firewall in front of any
    {!Io.t} stack, with generation-stamped clients.

    {!io} mints a client carrying the epoch current at mint time; after
    a microreboot (the [remake] factory rebuilds the stack) the old
    client's operations answer [ESTALE] while a freshly minted client
    reaches the new generation.  Escaping exceptions are contained to
    errnos; an exhausted restart budget degrades the layer to [EIO] on
    every operation. *)

type t

val create : name:string -> remake:(unit -> Io.t) -> unit -> t
(** [remake] builds the initial stack and rebuilds it on every
    microreboot. *)

val epoch : t -> int

val io : t -> Io.t
(** A client of the current generation.  Operations run inside the
    supervisor's containment wrapper and validate the client's epoch
    there, so a client minted before a microreboot answers [ESTALE] and
    never reaches the rebuilt stack — including on the call that
    performs the deferred reboot itself. *)
