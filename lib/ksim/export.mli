(** The one runtime export: the records klint's static/runtime
    reconciliations read.

    When the [KSIM_EXPORT] environment variable names a file, each
    process appends one ["kind\tfield\t..."] line per record there at
    exit, opening the file once.  Producers hand their records over
    through {!register}: {!Lockdep} its lock-order edges (["lockdep"]),
    {!Kmem} its heap events (["kmem"]), [Kblock.Wcache] its
    barrier-discipline violations (["wcache"]).  A failed write is not
    caught: the process that lost its records exits non-zero. *)

val target : unit -> string option
(** The file this process appends to at exit, if the export is on. *)

val set_target : string option -> unit
(** Redirect or switch off the export for the rest of the process, so a
    test can drive both paths whatever its environment says. *)

val on : unit -> bool
(** [target () <> None].  Producers keep records only while it holds. *)

val register : string -> (unit -> string list list) -> unit
(** [register kind rows]: at exit, each field list [rows ()] returns
    becomes one [kind] record.  [rows] must close over records only,
    never the objects that made them: a heap pins its allocations, a
    cache its base device. *)

val records : unit -> (string * string list) list
(** Every producer's records as of now, as (kind, fields), in
    registration order: what the exit hook would write. *)

val write : string -> (string * string list) list -> unit
(** Append the records to the file, one line each, creating it if
    needed.  @raise Sys_error when the file cannot be written. *)
