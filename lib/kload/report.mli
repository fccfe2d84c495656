(** The run report: everything a load run measured, as one record.

    The [fingerprint] is an MD5 over the per-tenant counter tuples in
    tenant order — the byte-for-byte replay witness: two runs of the
    same spec and seed must produce identical fingerprints. *)

type per_tenant = {
  t_class : int;  (** class index in the spec *)
  t_planned : int;
  t_executed : int;  (** ops that ran (admitted), successfully or not *)
  t_ok : int;
  t_errors : int;  (** residual errors after the retry policy *)
  t_shed : int;  (** refused by admission control with [EAGAIN] *)
  t_acked : int;  (** durable writes acknowledged (fsync + epoch check) *)
  t_estale : int;  (** stale-handle answers observed *)
  t_eintr : int;  (** quiesce aborts observed *)
  t_max_streak : int;  (** longest run of consecutive residual errors *)
  t_net_bytes : int;  (** response bytes over the socket layer *)
}

type t = {
  spec : Spec.t;
  seed : int;
  storm_name : string;
  sim_ns : int;  (** simulated time the run spanned *)
  planned : int;
  executed : int;
  ok : int;
  errors : int;
  shed : int;
  acked_writes : int;
  lost_acked_writes : int;  (** acked writes missing at read-back: must be 0 *)
  injected_faults : int;
  oopses : int;
  restarts : int;
  escalations : int;
  stale_rejected : int;
  recovery : Ksim.Hist.summary;  (** oops-to-healthy, merged across supervisors *)
  latency : (string * Ksim.Hist.summary) list;  (** service latency per op kind *)
  throughput_ops_per_sec : float;  (** executed ops per simulated second *)
  max_consec_errors : int;  (** worst tenant error streak *)
  admission_transitions : (int * Admission.mode) list;
  class_histogram : (string * int) list;
  tenant_counters : per_tenant array;
  fingerprint : string;
}

val fingerprint_of : per_tenant array -> string
(** Hex MD5 of the counters in tenant order. *)

val pp : Format.formatter -> t -> unit
(** Human-readable summary (not the replay witness). *)

val to_json_string : t -> string
(** The report as a JSON object (hand-rolled; no external deps) —
    what [safeos load --json] and [--out] emit. *)
