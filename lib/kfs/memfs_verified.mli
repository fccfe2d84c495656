(** "Verified" in-memory file system — roadmap step 4.

    {!Impl} is a functional path-trie (a different structure from the
    spec's flat map, so interpretation does real abstraction work);
    the exported operations wrap it in {!Kspec.Krefine.Monitor}, checking
    every call against {!Kspec.Fs_spec} as it executes.
    @raise Kspec.Krefine.Refinement_failure if the implementation ever
    diverges from the spec. *)

(** The bare, unmonitored implementation as a refinement machine (used by
    the verification-overhead ablation bench and as a building block in
    tests): mutable, so [step] returns its own [vars]; [inv] is [true]
    and there are no crash images — the trie lives only in memory. *)
module Impl : Kspec.Krefine.MACHINE

include Kvfs.Iface.FS_OPS

val checked_ops : fs -> int
(** Operations refinement-checked so far on this instance. *)
