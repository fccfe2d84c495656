(** A dm-flakey-style fault-injecting block layer over any {!Io.t}.

    Failure model, driven by three failpoints in the given
    {!Ksim.Failpoint} registry (replayable from the registry seed):

    - [<name>.read-eio]: transient [EIO] on read, nothing touched.
    - [<name>.write-eio]: transient [EIO] on write, the write is dropped
      — a multi-block logical write that draws this mid-sequence tears
      between blocks.
    - [<name>.torn-write]: a random-length {e prefix} of the new data
      lands over the old block content, then [EIO] — the intra-block torn
      write journal checksums must catch.

    Orthogonally, availability windows ({!set_availability}): [up] I/O
    ops working, then [down] ops failing everything including flush,
    repeating, counted per operation. *)

type t

val create : ?name:string -> fp:Ksim.Failpoint.t -> Io.t -> t
(** Registers [<name>.read-eio] / [.write-eio] / [.torn-write] (disabled)
    in [fp]; enable and tune them with {!Ksim.Failpoint.configure}.
    [name] defaults to ["flaky"]. *)

val set_availability : t -> up:int -> down:int -> unit
(** [down = 0] (the initial state) means always up. *)

val io : t -> Io.t

val read_errors : t -> int

val torn_writes : t -> int
(** Torn prefixes that actually landed on the base device. *)

val torn_skipped : t -> int
(** Torn-write draws where the base device refused the torn write (e.g. a
    nested down-window) — the caller still saw [EIO], but nothing landed,
    so it is not counted as torn. *)

val down_rejections : t -> int

val injected : t -> int
(** Total faults delivered across all mechanisms (including
    {!torn_skipped} — the caller saw an error either way). *)
