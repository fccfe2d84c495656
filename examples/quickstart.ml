(* Quickstart: boot the simulated kernel, mount file systems, and use the
   POSIX-ish fd API.

     dune exec examples/quickstart.exe
*)

let ( let* ) = Ksim.Errno.( let* )

let or_die = function
  | Ok v -> v
  | Error e -> failwith ("unexpected error: " ^ Ksim.Errno.to_string e)

let () =
  (* 1. A VFS with a type-safe memfs at / and a journaled FS at /var. *)
  let vfs = Kvfs.Vfs.create () in
  or_die (Kvfs.Vfs.mount vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()));
  or_die (Kvfs.Vfs.apply vfs (Kspec.Fs_spec.Mkdir (Kspec.Fs_spec.path_of_string "/var")) |> Result.map ignore);
  or_die
    (Kvfs.Vfs.mount vfs
       ~at:(Kspec.Fs_spec.path_of_string "/var")
       (Kvfs.Iface.make (module Kfs.Journalfs.Journaled_fs) ()));
  Fmt.pr "mounted:@.";
  List.iter
    (fun (at, name) -> Fmt.pr "  %-8s %s@." (Kspec.Fs_spec.path_to_string at) name)
    (Kvfs.Vfs.mounts vfs);

  (* 2. User-level file traffic through the fd layer. *)
  let fds = Kvfs.File_ops.create vfs in
  let result =
    let* fd = Kvfs.File_ops.openf fds ~flags:[ Kvfs.File_ops.O_RDWR; Kvfs.File_ops.O_CREAT ] "/var/hello.txt" in
    let* _ = Kvfs.File_ops.write fds fd "hello from the safer kernel\n" in
    let* _ = Kvfs.File_ops.lseek fds fd 0 Kvfs.File_ops.SEEK_SET in
    let* content = Kvfs.File_ops.read fds fd ~len:128 in
    let* () = Kvfs.File_ops.fsync fds in
    let* () = Kvfs.File_ops.close fds fd in
    Ok content
  in
  Fmt.pr "@.read back: %S@." (or_die result);

  (* 3. The namespace as one abstract state (the spec's view). *)
  let st = Kspec.Fs_spec.of_bindings (Kvfs.Vfs.interpret vfs) in
  Fmt.pr "@.namespace (%d entries):@." (Kspec.Fs_spec.Pathmap.cardinal st);
  Kspec.Fs_spec.Pathmap.iter
    (fun path node ->
      Fmt.pr "  %-18s %s@."
        (Kspec.Fs_spec.path_to_string path)
        (match node with
        | Kspec.Fs_spec.File content -> Printf.sprintf "file (%d bytes)" (String.length content)
        | Kspec.Fs_spec.Dir -> "dir"))
    st;

  (* 4. Replay a deterministic workload and show it's all green. *)
  let inst = Kvfs.Iface.make (module Kfs.Memfs_verified) () in
  let trace = Kfs.Workload.generate ~seed:1 Kfs.Workload.Mixed ~ops:1_000 in
  let ok, errs = Kfs.Workload.replay inst trace in
  Fmt.pr "@.1000-op workload on the verified memfs: %d ok, %d expected errors@." ok errs;
  Fmt.pr "every one of those operations was refinement-checked against the spec.@."
