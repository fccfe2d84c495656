(** The process layer: VFS + virtual memory + scheduler under one syscall
    surface.

    User programs are functions that receive only the {!sys} record —
    the syscall boundary is the interface; kernel internals are
    unreachable.  A kernel has one {!sys} record, handed to every
    program: a call acts on the process that makes it (the one whose
    thread is running, like Linux's [current]).  Every syscall is a
    scheduling point of the deterministic cooperative scheduler, so
    multi-process interactions replay exactly.  {!sys.spawn_child}
    clones the parent's address space copy-on-write
    (posix_spawn-with-COW; true fork of an OCaml closure is impossible —
    see DESIGN.md). *)

type t
(** A booted kernel. *)

exception Exited of int

(** The syscall surface handed to user programs, one per kernel.  A
    call made outside {!run} raises {!Ksim.Kthread.Not_in_scheduler}. *)
type sys = {
  openf : ?flags:Kvfs.File_ops.flag list -> string -> int Ksim.Errno.r;
  read : int -> len:int -> string Ksim.Errno.r;
  write : int -> string -> int Ksim.Errno.r;
  close : int -> unit Ksim.Errno.r;
  mkdir : string -> unit Ksim.Errno.r;
  unlink : string -> unit Ksim.Errno.r;
  readdir : string -> string list Ksim.Errno.r;
  fsync : unit -> unit Ksim.Errno.r;
  mmap : len:int -> prot:Kmm.Addr_space.prot -> int Ksim.Errno.r;
  mread : addr:int -> len:int -> string Ksim.Errno.r;
  mwrite : addr:int -> string -> unit Ksim.Errno.r;
  spawn_child : name:string -> (sys -> int) -> int;
      (** child pid; the child gets a COW clone of this address space *)
  wait : int -> int Ksim.Errno.r;
      (** block (cooperatively) until the pid exits; its exit code *)
  pipe : unit -> (int * int) Ksim.Errno.r;
      (** a fresh (read fd, write fd) pair; pipe fds live in their own
          descriptor space, shared kernel-wide so children can use them *)
  pread : int -> len:int -> string Ksim.Errno.r;
      (** blocks while empty and writers remain; [""] is EOF *)
  pwrite : int -> string -> int Ksim.Errno.r;  (** [EPIPE] with no readers *)
  pclose : int -> unit Ksim.Errno.r;
  yield : unit -> unit;
  exit : int -> unit;  (** terminate with a code (raises {!Exited}) *)
}

val boot : ?frames:int -> ?page_size:int -> ?max_steps:int -> unit -> t
(** A kernel with a root memfs and [frames] physical frames.
    [max_steps] raises the scheduler's livelock bound for very large
    process populations (the load harness runs tens of thousands). *)

val spawn : t -> name:string -> (sys -> int) -> int
(** Register a user program; returns its pid.  Its address space is
    built at its first memory syscall or [spawn_child], so a program
    that makes only file syscalls never has one.  Programs run inside
    {!run}. *)

val run : t -> unit
(** Drive every process to completion.  A program that dies on an
    uncaught exception gets exit code 139 — the simulated segfault. *)

val exit_code : t -> int -> int option
val running : t -> int
(** Processes that have not exited yet. *)

val crashed : t -> int list
(** Pids that ended with the simulated segfault. *)

val vfs : t -> Kvfs.Vfs.t
(** The shared file namespace (for inspection in tests). *)
