(** Refinement traces recorded from the load harness.

    {!record} runs a real (deterministic) {!Harness} population with the
    op sink attached and keeps the operations under [/dur], rebased to
    its root — the "real traffic" input the krefine enumerator checks
    journalfs/cowfs/microreboot machines against. *)

val record : ?target_ops:int -> seed:int -> unit -> Kspec.Fs_spec.op list
(** Record one harness run (storm-free, generous admission so nothing is
    shed) and return the ops under ["/dur"] rebased to the mount root.
    Deterministic in [seed].  [target_ops] (default 10_000) sizes a
    data-heavy spec so the trace reaches at least that many ops. *)
