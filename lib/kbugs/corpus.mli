(** The record-level CVE corpus behind the paper's §2 categorization.

    A synthetic substitute for the public Linux CVE database, generated
    deterministically to the paper's published summary: 1475 records —
    620 type/ownership-preventable (42.0%), 516 functional (35.0%),
    339 other (23.0%) — spread over 2010–2020 and kernel subsystems.
    The analysis consumes only the records, so the real corpus could be
    swapped in without changing the analysis. *)

type record = {
  cve_id : string;
  year : int;
  component : string;
  cwe : Cwe.t;
}

val total : int
val type_ownership_count : int
val functional_count : int
val other_count : int

val records : unit -> record list
(** All 1475 records (deterministic; memoized). *)

val by_component : unit -> (string * int) list
