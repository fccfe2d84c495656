(** Fixed-width integer / string serialization into block buffers. *)

val put_u32 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
val put_u16 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int

val put_string : bytes -> int -> string -> int
(** Write a u16-length-prefixed string; returns the offset past it. *)

val get_string : bytes -> int -> string * int
(** Read a u16-length-prefixed string; returns it and the offset past it. *)

val checksum : bytes -> int
(** Additive checksum used to detect torn journal records: the sum of
    (byte + 1) over the buffer, mod 2^30. *)

val checksum_many : bytes list -> int
