(* Record-level data behind Figure 2.

   The paper measured the public CVE database and Linux bug-fix patches;
   neither ships here, so the datasets below are synthetic record-level
   substitutes calibrated to the published shapes:

   - Fig 2a: new Linux kernel CVEs per year keep coming by the hundreds,
     with the well-known 2017 spike (per-year totals follow the NVD
     "linux kernel" counts).
   - Fig 2b: ext4 shipped in 2008, yet 50% of its CVEs were reported 7+
     years after release (the lag distribution below has its median at
     exactly 7 years).
   - Fig 2c: overlayfs/ext4/btrfs keep producing ~0.5 new bugs per 100
     LoC-year even a decade in (rates decay from ~1.5-2.5% toward 0.5%).

   All derived statistics in [Stats] are computed from these records, not
   hard-coded, so the figures regenerate the paper's shapes the same way
   the authors' scripts regenerated them from the real corpus. *)

type cve = { year : int }

(* NVD-shaped per-year counts for "linux kernel" CVEs. *)
let linux_cves_per_year =
  [
    (1999, 19); (2000, 5); (2001, 22); (2002, 20); (2003, 19); (2004, 51); (2005, 133);
    (2006, 90); (2007, 62); (2008, 71); (2009, 102); (2010, 123); (2011, 83); (2012, 115);
    (2013, 189); (2014, 133); (2015, 77); (2016, 217); (2017, 453); (2018, 177);
    (2019, 287); (2020, 126);
  ]

let linux_cves =
  lazy
    (List.concat_map
       (fun (year, count) -> List.init count (fun _ -> { year }))
       linux_cves_per_year)

let all_linux_cves () = Lazy.force linux_cves

(* ext4: stable since 2008.  Report lags in years after release; the
   median of this multiset is 7, matching "50% of CVEs in ext4 were found
   after 7 years or more of use". *)
let ext4_release_year = 2008

let ext4_report_lags =
  [ 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 7; 8; 8; 9; 9; 10; 10; 11; 11; 12; 12; 12; 13 ]

let ext4_cves =
  lazy (List.map (fun lag -> { year = ext4_release_year + lag }) ext4_report_lags)

let all_ext4_cves () = Lazy.force ext4_cves

(* Fig 2c: per-year bug patches and code size per file system.  Years are
   offsets from each FS's initial release; LoC grows, patch counts stay
   roughly proportional — the bugs-per-LoC rate decays towards ~0.5%/yr
   and stays there. *)
type fs_year = {
  fs : string;
  age : int; (* years since initial release *)
  bug_patches : int;
  loc : int;
}

let fs_bug_history =
  let series fs rows =
    List.mapi (fun age (bug_patches, loc) -> { fs; age; bug_patches; loc }) rows
  in
  (* (bug patches, LoC) per year of age. *)
  series "ext4"
    [ (620, 25_000); (410, 27_000); (350, 29_000); (300, 31_000); (260, 33_000);
      (240, 35_000); (230, 37_000); (220, 39_000); (215, 41_000); (210, 43_000);
      (225, 45_000); (235, 47_000) ]
  @ series "btrfs"
      [ (2_600, 65_000); (1_900, 75_000); (1_500, 85_000); (1_200, 95_000);
        (1_000, 105_000); (900, 115_000); (800, 125_000); (720, 130_000); (680, 135_000);
        (700, 140_000); (705, 142_000) ]
  @ series "overlayfs"
      [ (150, 6_000); (120, 7_500); (90, 8_500); (70, 9_000); (60, 9_500); (55, 10_000);
        (50, 10_500) ]

let fs_names = [ "overlayfs"; "ext4"; "btrfs" ]

let history_of fs = List.filter (fun r -> String.equal r.fs fs) fs_bug_history
