(** Record-level data behind Figure 2 — synthetic substitutes calibrated
    to the paper's published shapes (see DESIGN.md for the substitution
    argument).  All statistics are computed from these records by
    {!Stats}, never hard-coded. *)

type cve = { year : int }

val linux_cves_per_year : (int * int) list
(** NVD-shaped per-year totals used to generate the records. *)

val all_linux_cves : unit -> cve list
(** One record per CVE, 1999–2020 (deterministic; memoized). *)

val ext4_release_year : int

val all_ext4_cves : unit -> cve list

type fs_year = {
  fs : string;
  age : int;  (** years since the file system's initial release *)
  bug_patches : int;
  loc : int;
}

val fs_names : string list
val history_of : string -> fs_year list
