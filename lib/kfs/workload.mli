(** Deterministic workload (trace) generation.

    Traces are generated against a live spec state so most operations are
    valid, with a sprinkling of invalid ones (error paths are where kernel
    bugs hide).  Identical seeds yield identical traces across benches,
    differential tests, and crash exploration. *)

type profile =
  | Metadata_heavy  (** create/mkdir/rename/unlink churn, small writes *)
  | Data_heavy  (** few files, large sequential writes and reads *)
  | Mixed
  | Read_mostly

val profile_to_string : profile -> string
val all_profiles : profile list

val generate : ?seed:int -> profile -> ops:int -> Kspec.Fs_spec.op list
(** [generate profile ~ops] is a deterministic trace of [ops] operations. *)

val smoke : Kspec.Fs_spec.op list
(** A small fixed trace used by the quickstart example and smoke tests. *)

val replay : Kvfs.Iface.instance -> Kspec.Fs_spec.op list -> int * int
(** Run a trace; returns [(ok_count, err_count)]. *)
