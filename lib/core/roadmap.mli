(** The incremental migration engine — §3 made executable.

    One component is replaced at a time; each replacement must be a
    safety upgrade, speak a compatible interface, and pass functional
    validation (a generated trace checked op-by-op against the abstract
    spec, results and interpreted states both) before the registry swaps
    implementations. *)

type validation = {
  checked : int;  (** ops before the divergence, or all of them *)
  divergence : Kspec.Krefine.divergence option;
}

val validate : ?ops:int -> (unit -> Kvfs.Iface.instance) -> validation
(** Run a fresh candidate against the spec on a deterministic trace (seed 7):
    {!Kspec.Krefine.run} in lockstep, no crash points, stopping at the
    first divergence. *)

type step = {
  component : string;
  to_level : Level.t;
  iface : Interface.t;
  candidate : unit -> Kvfs.Iface.instance;
  loc : int;
  description : string;
}

type failure =
  | Not_an_upgrade of { current : Level.t; proposed : Level.t }
  | Interface_rejected of string
  | Validation_failed of Kspec.Krefine.divergence
  | Unknown_component

type outcome = {
  step : step;
  result : (Registry.entry * validation, failure) Stdlib.result;
}

val pp_outcome : Format.formatter -> outcome -> unit

val run_step : ?validation_ops:int -> Registry.t -> step -> outcome
val run_plan : ?validation_ops:int -> Registry.t -> step list -> outcome list
val succeeded : outcome -> bool

(** {1 §4.5 Rate of change: patches}

    A patch is a same-level replacement; it triggers revalidation of the
    patched component only — the executable form of "local changes to
    code require similarly local changes to proofs". *)

type patch = {
  patch_component : string;
  patch_description : string;
  replacement : unit -> Kvfs.Iface.instance;
}

val apply_patch :
  ?validation_ops:int -> Registry.t -> patch -> (validation, failure) Stdlib.result

val memfs_ladder : unit -> step list
(** The canonical three-step migration of "memfs": type-safe →
    ownership-safe → verified. *)
