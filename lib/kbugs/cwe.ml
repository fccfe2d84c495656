(* The CWE taxonomy used by the paper's section-2 analysis, mapped onto
   the simulator's bug classes and thus onto the roadmap rung that
   prevents each weakness. *)

type t = {
  cwe_id : int;
  cwe_name : string;
  bug_class : Safeos_core.Level.bug_class;
}

let v cwe_id cwe_name bug_class = { cwe_id; cwe_name; bug_class }

let catalog =
  [
    (* prevented by compile-time type and ownership safety (~42%) *)
    v 476 "NULL Pointer Dereference" Safeos_core.Level.Null_dereference;
    v 843 "Access of Resource Using Incompatible Type" Safeos_core.Level.Type_confusion;
    v 416 "Use After Free" Safeos_core.Level.Use_after_free;
    v 415 "Double Free" Safeos_core.Level.Double_free;
    v 119 "Improper Restriction of Memory Buffer Operations" Safeos_core.Level.Buffer_overflow;
    v 125 "Out-of-bounds Read" Safeos_core.Level.Buffer_overflow;
    v 787 "Out-of-bounds Write" Safeos_core.Level.Buffer_overflow;
    v 362 "Race Condition" Safeos_core.Level.Data_race;
    v 667 "Improper Locking" Safeos_core.Level.Data_race;
    v 401 "Missing Release of Memory" Safeos_core.Level.Memory_leak;
    (* prevented by functional correctness verification (+35%) *)
    v 20 "Improper Input Validation" Safeos_core.Level.Semantic;
    v 248 "Uncaught Exception" Safeos_core.Level.Semantic;
    v 682 "Incorrect Calculation" Safeos_core.Level.Semantic;
    v 459 "Incomplete Cleanup" Safeos_core.Level.Semantic;
    v 754 "Improper Check for Unusual Conditions" Safeos_core.Level.Semantic;
    v 665 "Improper Initialization" Safeos_core.Level.Semantic;
    v 1059 "Insufficient Technical Documentation" Safeos_core.Level.Semantic;
    (* the remaining 23%: numeric errors and security-design causes *)
    v 190 "Integer Overflow or Wraparound" Safeos_core.Level.Numeric;
    v 191 "Integer Underflow" Safeos_core.Level.Numeric;
    v 369 "Divide By Zero" Safeos_core.Level.Numeric;
    v 200 "Exposure of Sensitive Information" Safeos_core.Level.Design;
    v 284 "Improper Access Control" Safeos_core.Level.Design;
    v 264 "Permissions, Privileges, and Access Controls" Safeos_core.Level.Design;
    v 400 "Uncontrolled Resource Consumption" Safeos_core.Level.Design;
    (* framekernel TCB-confinement causes (klint R12-R14) *)
    v 1120 "Excessive Code Complexity" Safeos_core.Level.Design;
    v 653 "Improper Isolation or Compartmentalization" Safeos_core.Level.Design;
    v 668 "Exposure of Resource to Wrong Sphere" Safeos_core.Level.Design;
    (* crash-durability causes (klint R16-R18) *)
    v 662 "Improper Synchronization" Safeos_core.Level.Crash_inconsistency;
    v 392 "Missing Report of Error Condition" Safeos_core.Level.Crash_inconsistency;
    v 573 "Improper Following of Specification by Caller" Safeos_core.Level.Crash_inconsistency;
  ]

let find cwe_id = List.find_opt (fun c -> c.cwe_id = cwe_id) catalog

type prevention =
  | By_type_ownership  (** roadmap steps 2–3 *)
  | By_functional  (** roadmap step 4 *)
  | Other_cause  (** beyond the roadmap's claims *)

let prevention_to_string = function
  | By_type_ownership -> "type+ownership safety"
  | By_functional -> "functional correctness"
  | Other_cause -> "other causes"

let prevention cwe =
  match Safeos_core.Level.prevented_at cwe.bug_class with
  | Some Safeos_core.Level.Type_safe | Some Safeos_core.Level.Ownership_safe ->
      By_type_ownership
  | Some Safeos_core.Level.Verified -> By_functional
  | Some Safeos_core.Level.Unsafe | Some Safeos_core.Level.Modular | None -> Other_cause

let by_prevention p = List.filter (fun c -> prevention c = p) catalog
