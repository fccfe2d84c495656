(* A single klint finding: a source location where a safety-ladder rule
   fires, tagged with the bug class the rule guards (which decides, via
   [Level.prevents], at which rung the finding becomes a violation). *)

type rule =
  | R1_unchecked_cast
  | R2_unchecked_errptr
  | R3_lock_balance
  | R4_ownership_bypass
  | R5_must_check
  | R6_lockset_race
  | R7_lock_annotation
  | R8_use_after_free
  | R9_double_free
  | R10_error_leak
  | R11_borrow_escape
  | R12_unsafe_primitive
  | R13_frame_bypass
  | R14_unsound_export
  | R15_unverified_claim
  | R16_unordered_write
  | R17_ack_before_durable
  | R18_barrier_elision

let all_rules =
  [ R1_unchecked_cast; R2_unchecked_errptr; R3_lock_balance; R4_ownership_bypass;
    R5_must_check; R6_lockset_race; R7_lock_annotation; R8_use_after_free;
    R9_double_free; R10_error_leak; R11_borrow_escape; R12_unsafe_primitive;
    R13_frame_bypass; R14_unsound_export; R15_unverified_claim; R16_unordered_write;
    R17_ack_before_durable; R18_barrier_elision ]

let rule_id = function
  | R1_unchecked_cast -> "R1"
  | R2_unchecked_errptr -> "R2"
  | R3_lock_balance -> "R3"
  | R4_ownership_bypass -> "R4"
  | R5_must_check -> "R5"
  | R6_lockset_race -> "R6"
  | R7_lock_annotation -> "R7"
  | R8_use_after_free -> "R8"
  | R9_double_free -> "R9"
  | R10_error_leak -> "R10"
  | R11_borrow_escape -> "R11"
  | R12_unsafe_primitive -> "R12"
  | R13_frame_bypass -> "R13"
  | R14_unsound_export -> "R14"
  | R15_unverified_claim -> "R15"
  | R16_unordered_write -> "R16"
  | R17_ack_before_durable -> "R17"
  | R18_barrier_elision -> "R18"

let rule_of_id s = List.find_opt (fun r -> rule_id r = s) all_rules

let rule_name = function
  | R1_unchecked_cast -> "unchecked-cast"
  | R2_unchecked_errptr -> "unchecked-err-ptr"
  | R3_lock_balance -> "lock-balance"
  | R4_ownership_bypass -> "ownership-bypass"
  | R5_must_check -> "must-check"
  | R6_lockset_race -> "lockset-race"
  | R7_lock_annotation -> "lock-annotation"
  | R8_use_after_free -> "use-after-free"
  | R9_double_free -> "double-free"
  | R10_error_leak -> "error-path-leak"
  | R11_borrow_escape -> "borrow-escape"
  | R12_unsafe_primitive -> "unsafe-primitive-outside-frame"
  | R13_frame_bypass -> "frame-api-bypass"
  | R14_unsound_export -> "unsound-frame-export"
  | R15_unverified_claim -> "unverified-functional-claim"
  | R16_unordered_write -> "unordered-dependent-write"
  | R17_ack_before_durable -> "ack-before-durable"
  | R18_barrier_elision -> "barrier-elision-at-boundary"

(* The bucket each rule polices — the mapping the reconciliation uses:
   a subsystem claiming level L must be clean of every rule whose bucket
   [Level.prevents L] rules out. *)
let bug_class = function
  | R1_unchecked_cast -> Safeos_core.Level.Type_confusion
  | R2_unchecked_errptr -> Safeos_core.Level.Null_dereference
  | R3_lock_balance -> Safeos_core.Level.Data_race
  | R4_ownership_bypass -> Safeos_core.Level.Use_after_free
  | R5_must_check -> Safeos_core.Level.Semantic
  | R6_lockset_race -> Safeos_core.Level.Data_race
  | R7_lock_annotation -> Safeos_core.Level.Data_race
  | R8_use_after_free -> Safeos_core.Level.Use_after_free
  | R9_double_free -> Safeos_core.Level.Double_free
  | R10_error_leak -> Safeos_core.Level.Memory_leak
  | R11_borrow_escape -> Safeos_core.Level.Use_after_free
  (* TCB confinement is a design property: no ladder rung structurally
     prevents it, so R12-R14 never become level violations — their
     ratchet is the tcb.baseline count, not the claim reconciliation. *)
  | R12_unsafe_primitive -> Safeos_core.Level.Design
  | R13_frame_bypass -> Safeos_core.Level.Design
  | R14_unsound_export -> Safeos_core.Level.Design
  (* "verified means checked": a Verified registry claim with no
     registered krefine harness is a correctness-evidence hole, so the
     finding becomes a violation exactly at the Verified rung. *)
  | R15_unverified_claim -> Safeos_core.Level.Semantic
  (* Durability discipline ratchets by count (dur.baseline), not by the
     claim reconciliation: the journal's own ?barriers:false ablation is
     a statically reachable missing-flush path inside Verified-claiming
     subsystems, so folding R16-R18 into the ladder would convict the
     deliberate mutant.  The bucket still names the honest bug class. *)
  | R16_unordered_write -> Safeos_core.Level.Crash_inconsistency
  | R17_ack_before_durable -> Safeos_core.Level.Crash_inconsistency
  | R18_barrier_elision -> Safeos_core.Level.Crash_inconsistency

(* Anchor each rule in the paper's CWE study via the kbugs catalog. *)
let cwe_id = function
  | R1_unchecked_cast -> 843 (* access of resource using incompatible type *)
  | R2_unchecked_errptr -> 476 (* NULL pointer dereference *)
  | R3_lock_balance -> 667 (* improper locking *)
  | R4_ownership_bypass -> 416 (* use after free *)
  | R5_must_check -> 754 (* improper check for unusual conditions *)
  | R6_lockset_race -> 362 (* concurrent execution with improper synchronization *)
  | R7_lock_annotation -> 667 (* improper locking: contract and body disagree *)
  | R8_use_after_free -> 416 (* use after free *)
  | R9_double_free -> 415 (* double free *)
  | R10_error_leak -> 401 (* missing release of memory after effective lifetime *)
  | R11_borrow_escape -> 416 (* use after free: borrow outlives its lend *)
  | R12_unsafe_primitive -> 1120 (* excessive complexity: unsafe TCB bloat *)
  | R13_frame_bypass -> 653 (* improper isolation or compartmentalization *)
  | R14_unsound_export -> 668 (* exposure of resource to wrong sphere *)
  | R15_unverified_claim -> 1059 (* insufficient technical documentation: claim without evidence *)
  | R16_unordered_write -> 662 (* improper synchronization: dependent write outruns its barrier *)
  | R17_ack_before_durable -> 392 (* missing report of error condition: Ok acked while volatile *)
  | R18_barrier_elision -> 573 (* improper following of specification: wrapper drops the flush contract *)

type t = {
  rule : rule;
  file : string; (* path relative to the tree root, '/'-separated *)
  line : int;
  col : int;
  func : string; (* enclosing binding, for the human report; "" at toplevel *)
  message : string;
}

let v ~rule ~file ~loc ?(func = "") message =
  let pos = loc.Location.loc_start in
  {
    rule;
    file;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    func;
    message;
  }

(* The stable order everything downstream (baseline, report) uses:
   file, then line, then rule, so regenerating never reshuffles. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Stdlib.compare a.line b.line with
      | 0 -> (
          match String.compare (rule_id a.rule) (rule_id b.rule) with
          | 0 -> Stdlib.compare a.col b.col
          | c -> c)
      | c -> c)
  | c -> c

let sort findings = List.sort_uniq compare findings

let pp ppf f =
  Fmt.pf ppf "%s:%d:%d: [%s %s/CWE-%d] %s%s" f.file f.line f.col (rule_id f.rule)
    (Safeos_core.Level.bug_class_to_string (bug_class f.rule))
    (cwe_id f.rule) f.message
    (if f.func = "" then "" else Fmt.str " (in %s)" f.func)
