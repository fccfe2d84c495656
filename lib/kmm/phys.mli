(** Reference-counted physical frame allocator — the bottom of the
    typed virtual-memory stack. *)

type frame = int

type t

val create : nframes:int -> page_size:int -> t
val page_size : t -> int
val free_frames : t -> int

val alloc : t -> frame option
(** A zeroed frame with refcount 1, or [None] when memory is exhausted. *)

val refcount : t -> frame -> int
val incref : t -> frame -> unit
val decref : t -> frame -> unit
(** Zeroes and frees the frame when the count reaches zero. *)

val read : t -> frame -> off:int -> len:int -> string
val write : t -> frame -> off:int -> string -> unit
val copy : t -> src:frame -> dst:frame -> unit
