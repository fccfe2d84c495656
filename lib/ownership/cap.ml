(* Capability tokens.

   A capability is the runtime witness of a right to access a memory
   region.  Ownership-safe interfaces (roadmap step 3) pass capabilities
   instead of raw pointers; the checker validates every access against the
   region's current sharing state. *)

type mode =
  | Owner
  | Exclusive_borrow
  | Shared_borrow

let mode_to_string = function
  | Owner -> "owner"
  | Exclusive_borrow -> "excl-borrow"
  | Shared_borrow -> "shared-borrow"

type t = {
  cap_id : int;
  region_id : int;
  mode : mode;
  holder : string;
  mutable revoked : bool;
}

let next_id = ref 0

let make ~region_id ~mode ~holder =
  incr next_id;
  { cap_id = !next_id; region_id; mode; holder; revoked = false }

let revoke cap = cap.revoked <- true
let restore cap = cap.revoked <- false
let is_valid cap = not cap.revoked

let pp ppf cap =
  Fmt.pf ppf "cap#%d(%s of r%d held by %s%s)" cap.cap_id (mode_to_string cap.mode)
    cap.region_id cap.holder
    (if cap.revoked then ", revoked" else "")
