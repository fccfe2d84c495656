(** CWE taxonomy of the paper's §2 analysis, mapped to simulator bug
    classes and to the roadmap rung preventing each weakness. *)

type t = {
  cwe_id : int;
  cwe_name : string;
  bug_class : Safeos_core.Level.bug_class;
}

val catalog : t list
(** The weakness catalogue used by the corpus generator. *)

val find : int -> t option

type prevention =
  | By_type_ownership  (** roadmap steps 2–3 (the paper's ≈42%) *)
  | By_functional  (** roadmap step 4 (the additional ≈35%) *)
  | Other_cause  (** the remaining ≈23% *)

val prevention_to_string : prevention -> string
val prevention : t -> prevention
val by_prevention : prevention -> t list
