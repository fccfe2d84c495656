(* The record-level CVE corpus behind the paper's §2 categorization.

   "Among the 1475 total CVEs we examined, roughly 42% could be prevented
   with compile-time type and ownership safety, and an additional 35%
   with functional correctness verification.  The remaining 23% have a
   variety of causes."

   The real corpus is the public CVE database for Linux since 2010, which
   is not shipped here; we substitute a synthetic record-level corpus
   generated to the paper's published summary statistics: 1475 records,
   620 (42.0%) type/ownership-preventable, 516 (35.0%) functional, 339
   (23.0%) other, spread over 2010-2020 and kernel subsystems with a
   deterministic generator.  The analysis code consumes only the records,
   so swapping in the real corpus would not change a line of it. *)

type record = {
  cve_id : string;
  year : int;
  component : string;
  cwe : Cwe.t;
}

let total = 1475
let type_ownership_count = 620 (* 42.0% *)
let functional_count = 516 (* 35.0% *)
let other_count = 339 (* 23.0% *)

let () = assert (type_ownership_count + functional_count + other_count = total)

let components = [| "fs"; "net"; "drivers"; "mm"; "core"; "crypto"; "sound" |]
let years = Array.init 11 (fun i -> 2010 + i)

(* Deterministically spread [count] records over the catalogue slice for
   one prevention category. *)
let generate_category rng ~count ~category ~start_index =
  let cwes = Array.of_list (Cwe.by_prevention category) in
  assert (Array.length cwes > 0);
  List.init count (fun i ->
      let cwe = cwes.(Ksim.Rng.int rng (Array.length cwes)) in
      let year = years.(Ksim.Rng.int rng (Array.length years)) in
      {
        cve_id = Printf.sprintf "CVE-%d-%04d" year (1000 + start_index + i);
        year;
        component = components.(Ksim.Rng.int rng (Array.length components));
        cwe;
      })

let corpus =
  lazy
    (let rng = Ksim.Rng.of_int 20210531 (* the workshop date *) in
     generate_category rng ~count:type_ownership_count ~category:Cwe.By_type_ownership
       ~start_index:0
     @ generate_category rng ~count:functional_count ~category:Cwe.By_functional
         ~start_index:type_ownership_count
     @ generate_category rng ~count:other_count ~category:Cwe.Other_cause
         ~start_index:(type_ownership_count + functional_count))

let records () = Lazy.force corpus

let by_component () =
  List.fold_left
    (fun acc r ->
      let n = try List.assoc r.component acc with Not_found -> 0 in
      (r.component, n + 1) :: List.remove_assoc r.component acc)
    [] (records ())
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
