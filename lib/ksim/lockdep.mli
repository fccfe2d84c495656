(** Lock-order validation in the spirit of the kernel's lockdep.

    Records the acquired-while-holding graph across all threads and
    reports a potential deadlock the moment an acquisition would close a
    cycle — on the first run of any interleaving, not only the unlucky
    one that actually deadlocks. *)

type warning = {
  acquiring : string;
  cycle : string list;  (** the inverted order, ending back at [acquiring] *)
}

type t

val create : unit -> t

val lock_acquired : t -> name:string -> unit
(** Called by {!Klock.acquire} after taking the lock: records edges from
    every lock the current thread holds and checks for order inversions. *)

val lock_released : t -> name:string -> unit

val warnings : t -> warning list
val warning_count : t -> int
val edge_count : t -> int

val edges : t -> (string * string) list
(** The observed acquired-while-holding graph as (held, acquired) pairs,
    deterministically sorted.  Names are lock instance names
    (["i_lock:7"]); consumers wanting lock {e classes} strip the
    [:instance] suffix. *)

val dump_dot : t -> string
(** The graph in graphviz dot syntax, for debugging. *)

val global : t
(** The process-wide instance, mirroring the kernel's single lockdep.
    Its edges are the {!Export} records of kind ["lockdep"] (fields:
    held, acquired), which kracer's static/runtime reconciliation reads. *)
