(** Fixed-width integer serialization into block buffers. *)

val put_u32 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
val put_u16 : bytes -> int -> int -> unit

val checksum : bytes -> int
(** Additive checksum used to detect torn journal records: the sum of
    (byte + 1) over the buffer, mod 2^30. *)

val checksum_many : bytes list -> int
