(** POSIX-ish file-descriptor layer over {!Vfs}, so examples and workloads
    read like user programs. *)

type flag =
  | O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_CREAT
  | O_TRUNC
  | O_APPEND

type whence =
  | SEEK_SET
  | SEEK_CUR
  | SEEK_END

type t

val create : Vfs.t -> t

val openf : t -> ?flags:flag list -> string -> int Ksim.Errno.r
(** Open (default read-only); [O_CREAT] creates, [O_TRUNC] truncates.
    Returns a file descriptor (>= 3).  The fd records the epoch of the
    mount that minted it: after that mount microreboots
    ({!Ksim.Supervisor}), [read]/[write]/[lseek] on the stale fd answer
    [ESTALE] deterministically; reopen to reach the rebuilt state. *)

val close : t -> int -> unit Ksim.Errno.r
val write : t -> int -> string -> int Ksim.Errno.r
(** Write at the current position ([O_APPEND]: at EOF); returns the byte
    count and advances the position. *)

val read : t -> int -> len:int -> string Ksim.Errno.r
(** Read up to [len] bytes at the current position; short at EOF. *)

val lseek : t -> int -> int -> whence -> int Ksim.Errno.r
val mkdir : t -> string -> unit Ksim.Errno.r
val unlink : t -> string -> unit Ksim.Errno.r
val rmdir : t -> string -> unit Ksim.Errno.r
val rename : t -> string -> string -> unit Ksim.Errno.r
val readdir : t -> string -> string list Ksim.Errno.r
val stat : t -> string -> ([ `File | `Dir ] * int) Ksim.Errno.r
val fsync : t -> unit Ksim.Errno.r
val open_fds : t -> int

val fd_epoch : t -> int -> int option
(** The mount epoch recorded when the fd was opened ([None]: bad fd). *)
