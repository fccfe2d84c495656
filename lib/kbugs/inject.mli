(** Fault injection across the roadmap (EXP-PREVENT): for every
    executable fault class, switch the latent bug on in the step-0 module
    and observe the failure; then show, rung by rung, whether the class
    becomes structurally impossible, checker-detected, or remains
    exhibited. *)

type fault =
  | F_use_after_free
  | F_double_free
  | F_memory_leak
  | F_wrong_cast
  | F_missing_errptr_check
  | F_data_race
  | F_off_by_one
  | F_transient_io
      (** A flaky block device under the file system: transient [EIO]s
          that a resilient I/O stack absorbs and a bare one turns into a
          spurious failure (see {!Kblock.Flakydev} / {!Kblock.Resilient}). *)
  | F_module_panic
      (** A panic raised through a module entry point (CWE-248).
          Uncontained it oopses the whole kernel; behind a modular
          interface a {!Ksim.Supervisor} firewall converts it to an
          errno and microreboots the module. *)

val all_faults : fault list
val fault_to_string : fault -> string
val bug_class_of_fault : fault -> Safeos_core.Level.bug_class

type detection =
  | Prevented of string  (** structurally impossible at this rung *)
  | Detected of string  (** the rung's checker caught it *)
  | Exhibited of string  (** the bug struck, as in production *)
  | Not_triggered

val detection_to_string : detection -> string
val is_stopped : detection -> bool
(** [Prevented] or [Detected]. *)

val trigger_transient_io : protected:bool -> unit -> detection
(** Run a workload on {!Kfs.Journalfs} over a {!Kblock.Flakydev} with a
    deterministic schedule of transient write EIOs.  With
    [protected:true] a {!Kblock.Resilient} layer sits in between and the
    faults are absorbed ([Detected]); without it the first EIO fails the
    op and remounts the FS read-only ([Exhibited]). *)

val trigger_race : unit -> detection

val at_stage : Safeos_core.Level.t -> fault -> detection
val matrix : unit -> (fault * (Safeos_core.Level.t * detection) list) list
val render_matrix :
  Format.formatter -> (fault * (Safeos_core.Level.t * detection) list) list -> unit
