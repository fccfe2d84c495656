(* Userland on the simulated kernel: processes see only the syscall
   surface; the kernel underneath is the modular, incrementally-safer
   stack built throughout this repository.

     dune exec examples/userland.exe
*)

let ok = function Ok v -> v | Error e -> failwith (Ksim.Errno.to_string e)

let () =
  let k = Kproc.Kernel.boot () in

  (* A logging daemon: drains a spool file that other processes append to. *)
  let daemon =
    Kproc.Kernel.spawn k ~name:"logd" (fun sys ->
        ignore (sys.Kproc.Kernel.mkdir "/var");
        let collected = Buffer.create 64 in
        let rec loop idle =
          if idle > 50 then begin
            Fmt.pr "[logd] collected: %S@." (Buffer.contents collected);
            0
          end
          else
            match sys.Kproc.Kernel.openf "/var/spool" with
            | Ok fd ->
                let data = ok (sys.Kproc.Kernel.read fd ~len:256) in
                ignore (sys.Kproc.Kernel.close fd);
                ignore (sys.Kproc.Kernel.unlink "/var/spool");
                Buffer.add_string collected data;
                loop 0
            | Error Ksim.Errno.ENOENT ->
                sys.Kproc.Kernel.yield ();
                loop (idle + 1)
            | Error e -> failwith (Ksim.Errno.to_string e)
        in
        loop 0)
  in

  (* A worker: computes in private memory, reports through the FS. *)
  let worker =
    Kproc.Kernel.spawn k ~name:"worker" (fun sys ->
        let addr = ok (sys.Kproc.Kernel.mmap ~len:4096 ~prot:Kmm.Addr_space.prot_rw) in
        ok (sys.Kproc.Kernel.mwrite ~addr "42");
        (* Hand the scratch memory to a COW child for double-checking. *)
        let _child =
          sys.Kproc.Kernel.spawn_child ~name:"checker" (fun csys ->
              let v = ok (csys.Kproc.Kernel.mread ~addr ~len:2) in
              if String.equal v "42" then 0 else 1)
        in
        let fd =
          ok (sys.Kproc.Kernel.openf ~flags:[ Kvfs.File_ops.O_WRONLY; Kvfs.File_ops.O_CREAT ]
                "/var/spool")
        in
        ignore (ok (sys.Kproc.Kernel.write fd "answer=42;"));
        ignore (ok (sys.Kproc.Kernel.close fd));
        0)
  in

  (* A buggy process: it segfaults; nobody else notices. *)
  let buggy =
    Kproc.Kernel.spawn k ~name:"buggy" (fun sys ->
        match sys.Kproc.Kernel.mread ~addr:0xBAD000 ~len:8 with
        | Error Ksim.Errno.EFAULT -> failwith "chasing a wild pointer anyway"
        | _ -> 0)
  in

  Kproc.Kernel.run k;
  Fmt.pr "@.exit codes: logd=%a worker=%a buggy=%a@."
    Fmt.(option int) (Kproc.Kernel.exit_code k daemon)
    Fmt.(option int) (Kproc.Kernel.exit_code k worker)
    Fmt.(option int) (Kproc.Kernel.exit_code k buggy);
  Fmt.pr "crashed (simulated segfault, contained): pids %a@."
    Fmt.(list ~sep:comma int) (Kproc.Kernel.crashed k);
  Fmt.pr "@.the kernel namespace after the dust settles:@.";
  Kspec.Fs_spec.Pathmap.iter
    (fun path node ->
      Fmt.pr "  %-12s %s@."
        (Kspec.Fs_spec.path_to_string path)
        (match node with Kspec.Fs_spec.File _ -> "file" | Kspec.Fs_spec.Dir -> "dir"))
    (Kspec.Fs_spec.of_bindings (Kvfs.Vfs.interpret (Kproc.Kernel.vfs k)))
