(* The process layer: everything under one syscall surface.

   A process owns an address space (from [Kmm]) and a file-descriptor
   table (over the shared VFS); user programs are OCaml functions that
   receive only the [sys] record — they cannot reach kernel internals,
   so the syscall boundary really is the interface, exactly the
   modularity discipline the roadmap asks of kernel-internal components,
   applied at the top.  The kernel builds one [sys] record; a call acts
   on the process whose thread makes it, found by its tid (Linux's
   [current]).

   Scheduling is the deterministic cooperative scheduler: every syscall
   is a scheduling point, so multi-process interactions are reproducible
   from a seed.  [spawn_child] gives a child a copy-on-write clone of the
   parent's address space (posix_spawn-with-COW rather than true fork:
   OCaml closures cannot be snapshotted — noted in DESIGN.md). *)

type pipe = {
  pbuf : Buffer.t;
  mutable readers : int;
  mutable writers : int;
}

type pipe_end =
  | Read_end of pipe
  | Write_end of pipe

exception Exited of int

type t = {
  vfs : Kvfs.Vfs.t;
  phys : Kmm.Phys.t;
  sched : Ksim.Kthread.t;
  mutable procs : proc option array; (* by pid, the process's (dense) scheduler tid *)
  pipe_fds : (int, pipe_end) Hashtbl.t; (* pipe descriptors, shared kernel-wide *)
  mutable next_pipe_fd : int;
  sys : sys Lazy.t;
}

and proc = {
  mutable space : Kmm.Addr_space.t option; (* built at the first memory syscall or fork *)
  fds : Kvfs.File_ops.t;
  mutable exit_code : int option;
}

and sys = {
  (* files *)
  openf : ?flags:Kvfs.File_ops.flag list -> string -> int Ksim.Errno.r;
  read : int -> len:int -> string Ksim.Errno.r;
  write : int -> string -> int Ksim.Errno.r;
  close : int -> unit Ksim.Errno.r;
  mkdir : string -> unit Ksim.Errno.r;
  unlink : string -> unit Ksim.Errno.r;
  readdir : string -> string list Ksim.Errno.r;
  fsync : unit -> unit Ksim.Errno.r;
  (* memory *)
  mmap : len:int -> prot:Kmm.Addr_space.prot -> int Ksim.Errno.r;
  mread : addr:int -> len:int -> string Ksim.Errno.r;
  mwrite : addr:int -> string -> unit Ksim.Errno.r;
  (* processes *)
  spawn_child : name:string -> (sys -> int) -> int;
  wait : int -> int Ksim.Errno.r;
  (* pipes *)
  pipe : unit -> (int * int) Ksim.Errno.r;
  pread : int -> len:int -> string Ksim.Errno.r;
  pwrite : int -> string -> int Ksim.Errno.r;
  pclose : int -> unit Ksim.Errno.r;
  yield : unit -> unit;
  exit : int -> unit; (* raises Exited *)
}

let find t pid = if pid >= 0 && pid < Array.length t.procs then t.procs.(pid) else None

(* The calling process: the one whose thread the scheduler is running. *)
let current t =
  match find t (Ksim.Kthread.self ()) with
  | Some p -> p
  | None -> raise Ksim.Kthread.Not_in_scheduler

let space t p =
  match p.space with
  | Some s -> s
  | None ->
      let s = Kmm.Addr_space.create t.phys in
      p.space <- Some s;
      s

(* The one syscall surface: a call acts on the process that made it. *)
let rec make_sys t : sys =
  (* Every call yields first: syscalls are the scheduling points. *)
  let fds () =
    Ksim.Kthread.yield ();
    (current t).fds
  in
  let mem () =
    Ksim.Kthread.yield ();
    space t (current t)
  in
  {
    openf = (fun ?flags path -> Kvfs.File_ops.openf (fds ()) ?flags path);
    read = (fun fd ~len -> Kvfs.File_ops.read (fds ()) fd ~len);
    write = (fun fd data -> Kvfs.File_ops.write (fds ()) fd data);
    close = (fun fd -> Kvfs.File_ops.close (fds ()) fd);
    mkdir = (fun path -> Kvfs.File_ops.mkdir (fds ()) path);
    unlink = (fun path -> Kvfs.File_ops.unlink (fds ()) path);
    readdir = (fun path -> Kvfs.File_ops.readdir (fds ()) path);
    fsync = (fun () -> Kvfs.File_ops.fsync (fds ()));
    mmap = (fun ~len ~prot -> Kmm.Addr_space.mmap (mem ()) ~len ~prot Kmm.Addr_space.Anon);
    mread = (fun ~addr ~len -> Kmm.Addr_space.read (mem ()) ~addr ~len);
    mwrite = (fun ~addr data -> Kmm.Addr_space.write (mem ()) ~addr data);
    spawn_child =
      (fun ~name main ->
        spawn_proc t ~space:(Kmm.Addr_space.fork (space t (current t))) ~name main);
    wait =
      (fun pid ->
        match find t pid with
        | None -> Error Ksim.Errno.EINVAL
        | Some child ->
            let rec block () =
              match child.exit_code with
              | Some code -> Ok code
              | None ->
                  Ksim.Kthread.yield ();
                  block ()
            in
            block ());
    pipe =
      (fun () ->
        let p = { pbuf = Buffer.create 64; readers = 1; writers = 1 } in
        let rfd = t.next_pipe_fd in
        let wfd = t.next_pipe_fd + 1 in
        t.next_pipe_fd <- t.next_pipe_fd + 2;
        Hashtbl.replace t.pipe_fds rfd (Read_end p);
        Hashtbl.replace t.pipe_fds wfd (Write_end p);
        Ok (rfd, wfd));
    pread =
      (fun fd ~len ->
        match Hashtbl.find_opt t.pipe_fds fd with
        | Some (Read_end p) ->
            (* Block while the pipe is empty and writers remain; "" is the
               EOF once every write end has closed. *)
            let rec block () =
              if Buffer.length p.pbuf > 0 then begin
                let n = min len (Buffer.length p.pbuf) in
                let data = Buffer.sub p.pbuf 0 n in
                let rest = Buffer.sub p.pbuf n (Buffer.length p.pbuf - n) in
                Buffer.clear p.pbuf;
                Buffer.add_string p.pbuf rest;
                Ok data
              end
              else if p.writers = 0 then Ok ""
              else begin
                Ksim.Kthread.yield ();
                block ()
              end
            in
            block ()
        | Some (Write_end _) | None -> Error Ksim.Errno.EBADF);
    pwrite =
      (fun fd data ->
        match Hashtbl.find_opt t.pipe_fds fd with
        | Some (Write_end p) ->
            if p.readers = 0 then Error Ksim.Errno.EPIPE
            else begin
              Buffer.add_string p.pbuf data;
              Ksim.Kthread.yield ();
              Ok (String.length data)
            end
        | Some (Read_end _) | None -> Error Ksim.Errno.EBADF);
    pclose =
      (fun fd ->
        match Hashtbl.find_opt t.pipe_fds fd with
        | Some (Read_end p) ->
            p.readers <- p.readers - 1;
            Hashtbl.remove t.pipe_fds fd;
            Ok ()
        | Some (Write_end p) ->
            p.writers <- p.writers - 1;
            Hashtbl.remove t.pipe_fds fd;
            Ok ()
        | None -> Error Ksim.Errno.EBADF);
    yield = Ksim.Kthread.yield;
    exit = (fun code -> raise (Exited code));
  }

(* A process's pid is its thread's tid, so [current] needs one table. *)
and spawn_proc t ?space ~name main =
  let pid =
    Ksim.Kthread.spawn t.sched ~name (fun () ->
        let proc = current t in
        let code = try main (Lazy.force t.sys) with Exited code -> code in
        proc.exit_code <- Some code;
        Option.iter Kmm.Addr_space.destroy proc.space)
  in
  let fds = Kvfs.File_ops.create t.vfs (* fresh table; the VFS is shared *) in
  let n = Array.length t.procs in
  if pid >= n then t.procs <- Array.append t.procs (Array.make (max (pid + 1 - n) n) None);
  t.procs.(pid) <- Some { space; fds; exit_code = None };
  pid

let boot ?(frames = 1024) ?(page_size = 256) ?max_steps () =
  let vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) with
  | Ok () -> ()
  | Error e -> failwith ("Kernel.boot: " ^ Ksim.Errno.to_string e));
  let phys = Kmm.Phys.create ~nframes:frames ~page_size in
  let sched = Ksim.Kthread.create ?max_steps () in
  let pipe_fds = Hashtbl.create 8 in
  let rec t =
    { vfs; phys; sched; procs = [||]; pipe_fds; next_pipe_fd = 10_000; sys = lazy (make_sys t) }
  in
  t

let vfs t = t.vfs

let exit_code t pid =
  match find t pid with Some p -> p.exit_code | None -> None

let running t =
  Array.fold_left (fun n p -> match p with Some { exit_code = None; _ } -> n + 1 | _ -> n) 0 t.procs

let spawn t ~name main = spawn_proc t ~name main

let run t =
  Ksim.Kthread.run t.sched;
  (* Any thread that died on an uncaught exception becomes exit code 139,
     the simulated segfault. *)
  List.iter
    (fun (f : Ksim.Kthread.failure) ->
      match find t f.Ksim.Kthread.failed_tid with
      | Some p when p.exit_code = None ->
          p.exit_code <- Some 139;
          Option.iter Kmm.Addr_space.destroy p.space
      | _ -> ())
    (Ksim.Kthread.failures t.sched)

let crashed t =
  List.filter
    (fun pid -> match t.procs.(pid) with Some p -> p.exit_code = Some 139 | None -> false)
    (List.init (Array.length t.procs) Fun.id)
