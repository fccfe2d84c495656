(** Attachment points for verified extension programs: a packet filter and
    an FS-operation tracer.  A trapping program cannot harm the kernel —
    the hook applies the attachment's default instead. *)

(** {1 Packet filter} *)

type filter

val attach_filter :
  ?default_accept:bool -> Insn.program -> (filter, Verifier.rejection) result

val filter_packet : filter -> string -> bool
(** Run the program over the packet bytes; non-zero r0 accepts.  Traps
    fall back to [default_accept]. *)

val filter_stats : filter -> int * int * int
(** (accepted, dropped, traps). *)

(** {1 FS-operation tracer} *)

type tracer

val attach_tracer : Insn.program -> (tracer, Verifier.rejection) result
(** A tracer with 16 buckets. *)

val trace_op : tracer -> Kspec.Fs_spec.op -> unit
(** Run the program on the encoded op; r0 selects the bucket to count. *)

val bucket_counts : tracer -> int array
val tracer_traps : tracer -> int

(** {1 Generic counter probe}

    The tracer hook generalized to caller-encoded contexts: attach a
    verified program, feed it events, and it buckets them.  The load
    harness uses these as its per-tenant / per-class export plane. *)

type probe

val attach_probe : ?buckets:int -> Insn.program -> (probe, Verifier.rejection) result

val probe_event : probe -> string -> unit
(** Run the program on the raw context; r0 selects the bucket to count
    (wrapped modulo the bucket array).  Traps are counted, not raised. *)

val probe_counts : probe -> int array

val encode_load_event : tenant:int -> class_id:int -> kind:int -> size:int -> string
(** The load-event context layout: tenant id (two bytes, little-endian),
    class index, operation kind, payload size divided by 256 and
    clamped. *)

val tenant_probe : Insn.program
(** Bucket = tenant id; attach with enough buckets for the population. *)

val class_kind_probe : Insn.program
(** Bucket = class * 8 + kind: the per-class operation-mix matrix. *)

(** {1 Canned programs} *)

val packet_kind_filter : kind:int -> min_len:int -> Insn.program
(** Accept packets of the given first-byte kind and minimum length. *)

val opcode_tracer : Insn.program
(** Count FS ops by opcode. *)

val large_write_tracer : threshold:int -> Insn.program
(** Bucket 1 for writes larger than [threshold] bytes, else 0. *)

val looping_program : Insn.program
(** The canonical rejected program (a backward jump) — the executable
    statement of the mechanism's expressiveness limit. *)
