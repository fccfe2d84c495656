(** State-machine refinement checking at scale, in the verified-betrfs
    mold.

    The spec is a {e UIStateMachine} over the abstract map {!Fs_spec}
    ({!Spec_machine}); an implementation is a low machine ({!MACHINE})
    carrying an interpretation function [interp : vars -> Fs_spec.bindings]
    and its own invariant [inv].  The inductive invariant the checker
    discharges is [Inv v = inv v ∧ Fs_spec.wf (interp v)]: [inv] is
    about the implementation's state, well-formedness about the spec
    state.  Each state is interpreted once, as a listing of its
    bindings, and the checker never builds that state: it zips the
    listing against the spec state it must equal
    ({!Fs_spec.equal_bindings}) and checks well-formedness on the spec
    state it matched.  Only a state that matches none is built, to
    classify and report the divergence.  {!run} checks, at every step
    of a trace, the verified-betrfs proof obligations executably:

    - [init ⊢ Inv] and [interp (init ()) = Fs_spec.empty];
    - [Inv ∧ step ⊢ Inv'] and the commuting square
      [interp (step v op) = Fs_spec.step (interp v) op] with equal
      results — a result mismatch is reported first, then a broken
      [Inv'], then a state mismatch;
    - at every crash point, each post-crash image satisfies [Inv] and
      recovers to a state the crash-safe spec allows
      ({!Fs_spec.Crash_safe}), tracked by an incremental frontier
      instead of the quadratic [allowed_recoveries] recomputation.  At
      an [Fsync] the images may predate the fsync's return, so they may
      also recover to any state the frontier allowed just before it
      (see {!config}).

    {!Monitor} checks the same invariant and commuting square live, one
    call at a time, and classifies a divergence as {!run} does.

    Everything is deterministic in the config seed: replaying the same
    seed yields a byte-identical {!coverage_fingerprint}. *)

(** {1 State machines} *)

(** A low machine: implementation steps, viewed through [interp]. *)
module type MACHINE = sig
  type vars

  val name : string
  val init : unit -> vars

  val step : vars -> Fs_spec.op -> vars * Fs_spec.result
  (** Mutable implementations return the same [vars]. *)

  val interp : vars -> Fs_spec.bindings
  (** The interpretation (abstraction) function [I : L.Vars -> H.Vars],
      as the state's bindings.  Listed in {!Fs_spec.Pathmap} key order
      (one depth-first walk, each directory's children in name order),
      they are checked by a zip; any other order, or a repeated path
      (the later entry wins), is checked by building the map, with the
      same verdict. *)

  val inv : vars -> bool
  (** The implementation's own invariant (e.g. not corrupt, no barrier
      violations), checked at init, after every step and on every crash
      image.  It need not interpret: the checker checks
      [Fs_spec.wf (interp v)] itself, on the interpretation it already
      has.  [fun _ -> true] when the machine has nothing of its own. *)

  val crash_images : vars -> limit:int -> vars list
  (** Recovered machines reachable if a crash struck right now — one per
      distinct surviving-write subset, already recovered.  [[]] means
      the machine has no crash semantics (pure in-memory). *)
end

module Spec_machine : MACHINE with type vars = Fs_spec.state
(** The high machine: {!Fs_spec} itself (interp lists the map's
    bindings, inv = true; the checker's well-formedness check is the
    spec's own invariant). *)

(** {1 Divergences} *)

type mismatch =
  | Result_mismatch of { expected : Fs_spec.result; got : Fs_spec.result }
  | State_mismatch of { expected : Fs_spec.state; got : Fs_spec.state }
  | Invariant_violation
  | Crash_divergence of {
      image_index : int;
      recovered : Fs_spec.state;
      frontier : Fs_spec.state list;  (** the allowed recovery states *)
    }

type divergence = {
  step_index : int;
  op : Fs_spec.op;
  mismatch : mismatch;
  counterexample : Fs_spec.op list;
      (** A trace reproducing the divergence; minimal when the config
          enables shrinking. *)
}

val pp_mismatch : Format.formatter -> mismatch -> unit
val pp_divergence : Format.formatter -> divergence -> unit

exception Refinement_failure of divergence

(** Wrap a machine so every call is refinement-checked live — what
    "verified module" means at roadmap step 4 inside the simulator.
    Crash images are not consulted. *)
module Monitor (M : MACHINE) : sig
  type t

  val create : unit -> t
  (** A fresh [M.init ()] paired with the empty spec state. *)

  val apply : t -> Fs_spec.op -> Fs_spec.result
  (** Step the machine and check it as {!run}'s lockstep does: results,
      then the invariant, then the commuting square.
      @raise Refinement_failure the moment the machine diverges; its
      [counterexample] is empty. *)

  val interpret : t -> Fs_spec.bindings
  val checked_ops : t -> int
end

(** {1 The enumerator} *)

type config = {
  seed : int;  (** drives interleaving merges; part of the fingerprint *)
  images_per_op : int;  (** crash-image bound per crash point *)
  crash_every : int;  (** enumerate crash images every [k] ops; 0 = never *)
  frontier_limit : int;
      (** bound on the allowed-recovery frontier; once exceeded, crash
          checks are skipped (and counted) until the next [Fsync] resets
          the frontier — never a false alarm.  The frontier at an [Fsync]
          is the synced state plus the frontier just before it, the
          window in which the fsync had not yet returned; an image there
          that only the pre-fsync frontier could allow is skipped (and
          counted) when that frontier had overflowed *)
  shrink : bool;  (** delta-debug the first divergence to a minimal trace *)
  max_divergences : int;  (** stop collecting crash divergences after this many *)
}

val default_config : config
(** seed 0, 8 images/op, crash every op, frontier 64, shrink, at most 16
    divergences. *)

type coverage = {
  harness : string;  (** machine name *)
  ops : int;
  states_explored : int;  (** init + per-op states + crash images *)
  crash_points : int;
  crash_images : int;
  skipped_images : int;  (** honesty counter: images unchecked on frontier overflow *)
  frontier_peak : int;
  interleavings : int;
  deepest_divergence : int;  (** largest diverging step index; -1 when clean *)
  divergences : divergence list;
}

val is_clean : coverage -> bool
val pp_coverage : Format.formatter -> coverage -> unit

val coverage_fingerprint : coverage -> string
(** MD5 over every field and every divergence — byte-identical across
    replays of the same seed. *)

val run :
  ?config:config -> (module MACHINE with type vars = 'a) -> Fs_spec.op list -> coverage
(** Drive a fresh machine through the trace, checking invariant +
    refinement at every step and enumerating crash images per config. *)

(** {1 Interleavings} *)

val merge : seed:int -> Fs_spec.op list list -> Fs_spec.op list
(** A seeded fair merge of per-thread op streams (program order within a
    stream is preserved).  Deterministic in [seed]. *)

val explore :
  ?config:config ->
  interleavings:int ->
  (module MACHINE with type vars = 'a) ->
  Fs_spec.op list list ->
  coverage
(** Check every seeded interleaving of the streams (seeds [config.seed],
    [config.seed+1], …), aggregating coverage.  This subsumes the old
    [Conc.outsource]: schedule-sensitivity shows up as a divergence on
    some interleaving. *)

(** {1 Pure queries over the abstract state} *)

val count_files : Fs_spec.state -> int
val count_dirs : Fs_spec.state -> int
val total_bytes : Fs_spec.state -> int
val max_depth : Fs_spec.state -> int
