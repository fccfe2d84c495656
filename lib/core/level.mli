(** The safety ladder of Figure 1 and the bug classes each rung prevents.

    This encoding is the paper's core claim: each roadmap step makes
    whole classes of bugs structurally impossible, and the class
    assignment drives the CVE categorization (≈42% prevented by type +
    ownership safety, +35% by functional correctness, 23% other). *)

type t =
  | Unsafe  (** step 0: today's C module *)
  | Modular  (** step 1: called only through a modular interface *)
  | Type_safe  (** step 2: no void pointers, no error-pointer casts *)
  | Ownership_safe  (** step 3: checked memory/thread ownership *)
  | Verified  (** step 4: refinement-checked against a specification *)

val all : t list
val rank : t -> int
val of_rank : int -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val compare : t -> t -> int

val ( >= ) : t -> t -> bool
(** Level dominance: [a >= b] when [a] offers at least [b]'s guarantees. *)

type bug_class =
  | Type_confusion
  | Null_dereference
  | Use_after_free
  | Double_free
  | Buffer_overflow
  | Data_race
  | Memory_leak
  | Semantic  (** wrong results within defined behaviour *)
  | Crash_inconsistency  (** lost/torn updates across a crash *)
  | Numeric  (** integer overflow/underflow — the paper's "other" bucket *)
  | Design  (** weak access restriction, info exposure — also "other" *)

val all_bug_classes : bug_class list
val bug_class_to_string : bug_class -> string

val prevented_at : bug_class -> t option
(** Minimum rung making the class impossible; [None] = beyond the
    roadmap's scope (the remaining 23%). *)

val prevents : t -> bug_class -> bool
