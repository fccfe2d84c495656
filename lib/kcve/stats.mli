(** Statistics for Figure 2, derived from {!Dataset} records. *)

val cves_per_year : Dataset.cve list -> (int * int) list
(** Figure 2a's series. *)

type cdf_point = {
  lag_years : int;
  cumulative_fraction : float;
}

val report_lag_cdf : release_year:int -> Dataset.cve list -> cdf_point list
(** Figure 2b's series: CDF of (report year − release year). *)

val median_lag : release_year:int -> Dataset.cve list -> float

type rate_point = {
  age : int;
  bugs_per_loc_pct : float;
}

val bug_rate_series : string -> rate_point list
(** Figure 2c's series for one file system (percent bugs/LoC/year). *)

val final_rate : string -> float
(** The latest bugs/LoC rate — the paper's ~0.5% tail. *)

val recent_total : since:int -> Dataset.cve list -> int

val fraction_at_or_after :
  release_year:int -> lag:int -> Dataset.cve list -> float
(** Fraction of CVEs reported [lag] or more years after release. *)
