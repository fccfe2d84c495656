(* Derived statistics for Figure 2, computed from the record-level data. *)

let cves_per_year records =
  List.fold_left
    (fun acc (r : Dataset.cve) ->
      let n = try List.assoc r.year acc with Not_found -> 0 in
      (r.year, n + 1) :: List.remove_assoc r.year acc)
    [] records
  |> List.sort compare

(* Fig 2b: CDF of report lag (years after release). *)
type cdf_point = {
  lag_years : int;
  cumulative_fraction : float;
}

let report_lag_cdf ~release_year records =
  let lags = List.map (fun (r : Dataset.cve) -> r.year - release_year) records in
  let total = List.length lags in
  if total = 0 then []
  else
    let max_lag = List.fold_left max 0 lags in
    List.init (max_lag + 1) (fun lag ->
        let below = List.length (List.filter (fun l -> l <= lag) lags) in
        { lag_years = lag; cumulative_fraction = float_of_int below /. float_of_int total })

let median_lag ~release_year records =
  let lags =
    List.sort compare (List.map (fun (r : Dataset.cve) -> r.year - release_year) records)
  in
  match lags with
  | [] -> 0.
  | _ ->
      let n = List.length lags in
      if n mod 2 = 1 then float_of_int (List.nth lags (n / 2))
      else float_of_int (List.nth lags ((n / 2) - 1) + List.nth lags (n / 2)) /. 2.

(* Fig 2c: bugs per line of code per year, as a percentage. *)
type rate_point = {
  age : int;
  bugs_per_loc_pct : float;
}

let bug_rate_series fs =
  List.map
    (fun (r : Dataset.fs_year) ->
      {
        age = r.age;
        bugs_per_loc_pct = 100.0 *. float_of_int r.bug_patches /. float_of_int r.loc;
      })
    (Dataset.history_of fs)

let final_rate fs =
  match List.rev (bug_rate_series fs) with [] -> 0. | last :: _ -> last.bugs_per_loc_pct

(* Headline numbers quoted in the paper's prose. *)
let recent_total ~since records =
  List.length (List.filter (fun (r : Dataset.cve) -> r.year >= since) records)

let fraction_at_or_after ~release_year ~lag records =
  let total = List.length records in
  let late =
    List.length (List.filter (fun (r : Dataset.cve) -> r.year - release_year >= lag) records)
  in
  if total = 0 then 0. else float_of_int late /. float_of_int total
