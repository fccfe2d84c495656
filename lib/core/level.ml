(* The safety ladder of Figure 1 and the bug classes each rung prevents.

   This encoding *is* the paper's core claim: each step up the ladder
   makes whole classes of bugs structurally impossible, and the class
   assignment below is the one used by the CVE categorization (42% type+
   ownership, +35% functional correctness, 23% other). *)

type t =
  | Unsafe (* step 0: today's C module *)
  | Modular (* step 1: called only through a modular interface *)
  | Type_safe (* step 2: no void pointers, no error-pointer casts *)
  | Ownership_safe (* step 3: checked memory/thread ownership *)
  | Verified (* step 4: refinement-checked against a specification *)

let all = [ Unsafe; Modular; Type_safe; Ownership_safe; Verified ]

let rank = function
  | Unsafe -> 0
  | Modular -> 1
  | Type_safe -> 2
  | Ownership_safe -> 3
  | Verified -> 4

let of_rank = function
  | 0 -> Some Unsafe
  | 1 -> Some Modular
  | 2 -> Some Type_safe
  | 3 -> Some Ownership_safe
  | 4 -> Some Verified
  | _ -> None

let to_string = function
  | Unsafe -> "unsafe"
  | Modular -> "modular"
  | Type_safe -> "type-safe"
  | Ownership_safe -> "ownership-safe"
  | Verified -> "verified"

let pp ppf level = Fmt.string ppf (to_string level)
let compare a b = Stdlib.compare (rank a) (rank b)
let ( >= ) a b = rank a >= rank b

(* Bug classes, following the paper's CWE buckets. *)
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
  | Numeric  (** integer overflow/underflow: the paper's "other" bucket *)
  | Design  (** weak access restriction, info exposure: also "other" *)

let all_bug_classes =
  [ Type_confusion; Null_dereference; Use_after_free; Double_free; Buffer_overflow;
    Data_race; Memory_leak; Semantic; Crash_inconsistency; Numeric; Design ]

let bug_class_to_string = function
  | Type_confusion -> "type-confusion"
  | Null_dereference -> "null-dereference"
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Buffer_overflow -> "buffer-overflow"
  | Data_race -> "data-race"
  | Memory_leak -> "memory-leak"
  | Semantic -> "semantic"
  | Crash_inconsistency -> "crash-inconsistency"
  | Numeric -> "numeric"
  | Design -> "design"

(* The minimum rung at which a bug class becomes impossible; [None] means
   the roadmap does not claim it (the paper's remaining 23%). *)
let prevented_at = function
  | Type_confusion | Null_dereference -> Some Type_safe
  | Use_after_free | Double_free | Buffer_overflow | Data_race | Memory_leak ->
      Some Ownership_safe
  | Semantic | Crash_inconsistency -> Some Verified
  | Numeric | Design -> None

let prevents level bug =
  match prevented_at bug with
  | Some required -> Stdlib.( >= ) (rank level) (rank required)
  | None -> false
