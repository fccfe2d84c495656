(* A POSIX-ish file-descriptor layer on top of the VFS, so examples and
   workloads read like user programs: open/read/write/lseek/close. *)

type flag =
  | O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_CREAT
  | O_TRUNC
  | O_APPEND

type open_file = {
  path : Kspec.Fs_spec.path;
  mutable pos : int;
  writable : bool;
  readable : bool;
  append : bool;
  epoch : int;
      (* generation of the mount that minted this fd; a supervised
         mount that microreboots strands the fd at the old epoch and
         every subsequent use answers ESTALE *)
}

module Fdmap = Map.Make (Int)

(* A map, not a hashtable: a process that never opens a file pays for
   no table. *)
type t = {
  vfs : Vfs.t;
  mutable fds : open_file Fdmap.t;
  mutable next_fd : int;
}

let create vfs = { vfs; fds = Fdmap.empty; next_fd = 3 (* 0-2 taken, as ever *) }

let ( let* ) = Ksim.Errno.( let* )

let file_size t path =
  match Vfs.apply t.vfs (Stat path) with
  | Ok (Attr { kind = `File; size }) -> Ok size
  | Ok (Attr { kind = `Dir; _ }) -> Error Ksim.Errno.EISDIR
  | Ok _ -> Error Ksim.Errno.EIO
  | Error e -> Error e

let openf t ?(flags = [ O_RDONLY ]) path_str =
  let path = Kspec.Fs_spec.path_of_string path_str in
  let has f = List.mem f flags in
  let writable = has O_WRONLY || has O_RDWR in
  let readable = (not (has O_WRONLY)) || has O_RDWR in
  let* () =
    match Vfs.apply t.vfs (Stat path) with
    | Ok (Attr { kind = `Dir; _ }) when writable -> Error Ksim.Errno.EISDIR
    | Ok _ -> Ok ()
    | Error ENOENT when has O_CREAT -> (
        match Vfs.apply t.vfs (Create path) with Ok _ -> Ok () | Error e -> Error e)
    | Error e -> Error e
  in
  let* () =
    if has O_TRUNC && writable then
      match Vfs.apply t.vfs (Truncate (path, 0)) with Ok _ -> Ok () | Error e -> Error e
    else Ok ()
  in
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  let f =
    { path; pos = 0; writable; readable; append = has O_APPEND; epoch = Vfs.epoch_at t.vfs path }
  in
  t.fds <- Fdmap.add fd f t.fds;
  Ok fd

let lookup_fd t fd =
  match Fdmap.find_opt fd t.fds with Some f -> Ok f | None -> Error Ksim.Errno.EBADF

(* The stale-handle gate: an fd minted before its mount's last
   microreboot must not touch the rebuilt state. *)
let live_fd t fd =
  let* f = lookup_fd t fd in
  let* () = Vfs.validate_epoch t.vfs f.path f.epoch in
  Ok f

let close t fd =
  let* _ = lookup_fd t fd in
  t.fds <- Fdmap.remove fd t.fds;
  Ok ()

let write t fd data =
  let* f = live_fd t fd in
  if not f.writable then Error Ksim.Errno.EBADF
  else
    let* off = if f.append then file_size t f.path else Ok f.pos in
    match Vfs.apply_stamped t.vfs ~epoch:f.epoch (Write { file = f.path; off; data }) with
    | Ok _ ->
        f.pos <- off + String.length data;
        Ok (String.length data)
    | Error e -> Error e

let read t fd ~len =
  let* f = live_fd t fd in
  if not f.readable then Error Ksim.Errno.EBADF
  else
    match Vfs.apply_stamped t.vfs ~epoch:f.epoch (Read { file = f.path; off = f.pos; len }) with
    | Ok (Data data) ->
        f.pos <- f.pos + String.length data;
        Ok data
    | Ok _ -> Error Ksim.Errno.EIO
    | Error e -> Error e

type whence =
  | SEEK_SET
  | SEEK_CUR
  | SEEK_END

let lseek t fd offset whence =
  let* f = live_fd t fd in
  let* base =
    match whence with
    | SEEK_SET -> Ok 0
    | SEEK_CUR -> Ok f.pos
    | SEEK_END -> file_size t f.path
  in
  let pos = base + offset in
  if pos < 0 then Error Ksim.Errno.EINVAL
  else begin
    f.pos <- pos;
    Ok pos
  end

let wrap_unit t op =
  match Vfs.apply t.vfs op with
  | Ok _ -> Ok ()
  | Error e -> Error e

let mkdir t path = wrap_unit t (Mkdir (Kspec.Fs_spec.path_of_string path))
let unlink t path = wrap_unit t (Unlink (Kspec.Fs_spec.path_of_string path))
let rmdir t path = wrap_unit t (Rmdir (Kspec.Fs_spec.path_of_string path))

let rename t src dst =
  wrap_unit t
    (Rename (Kspec.Fs_spec.path_of_string src, Kspec.Fs_spec.path_of_string dst))

let readdir t path =
  match Vfs.apply t.vfs (Readdir (Kspec.Fs_spec.path_of_string path)) with
  | Ok (Names names) -> Ok names
  | Ok _ -> Error Ksim.Errno.EIO
  | Error e -> Error e

let stat t path =
  match Vfs.apply t.vfs (Stat (Kspec.Fs_spec.path_of_string path)) with
  | Ok (Attr { kind; size }) -> Ok (kind, size)
  | Ok _ -> Error Ksim.Errno.EIO
  | Error e -> Error e

let fsync t = wrap_unit t Fsync
let open_fds t = Fdmap.cardinal t.fds

let fd_epoch t fd =
  match Fdmap.find_opt fd t.fds with Some f -> Some f.epoch | None -> None
