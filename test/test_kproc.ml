(* Tests for the process layer: syscall surface, shared namespace,
   isolated memory, COW spawn, crash containment, and determinism. *)

let check = Alcotest.check
let fail = Alcotest.fail

let ok = function Ok v -> v | Error e -> fail (Ksim.Errno.to_string e)

let test_hello_process () =
  let k = Kproc.Kernel.boot () in
  let pid =
    Kproc.Kernel.spawn k ~name:"hello" (fun sys ->
        let fd = ok (sys.Kproc.Kernel.openf ~flags:[ Kvfs.File_ops.O_RDWR; Kvfs.File_ops.O_CREAT ] "/greeting") in
        ignore (ok (sys.Kproc.Kernel.write fd "hello from userland"));
        ignore (ok (sys.Kproc.Kernel.close fd));
        0)
  in
  Kproc.Kernel.run k;
  check (Alcotest.option Alcotest.int) "exit 0" (Some 0) (Kproc.Kernel.exit_code k pid);
  check Alcotest.int "nothing running" 0 (Kproc.Kernel.running k);
  (* The file is visible in the kernel's namespace afterwards. *)
  match
    Kvfs.Vfs.apply (Kproc.Kernel.vfs k)
      (Kspec.Fs_spec.Read { file = Kspec.Fs_spec.path_of_string "/greeting"; off = 0; len = 64 })
  with
  | Ok (Kspec.Fs_spec.Data data) -> check Alcotest.string "content" "hello from userland" data
  | _ -> fail "file missing"

let test_processes_share_namespace () =
  let k = Kproc.Kernel.boot () in
  let writer =
    Kproc.Kernel.spawn k ~name:"writer" (fun sys ->
        let fd = ok (sys.Kproc.Kernel.openf ~flags:[ Kvfs.File_ops.O_WRONLY; Kvfs.File_ops.O_CREAT ] "/mailbox") in
        ignore (ok (sys.Kproc.Kernel.write fd "ping"));
        ignore (ok (sys.Kproc.Kernel.close fd));
        0)
  in
  let reader_result = ref "" in
  let reader =
    Kproc.Kernel.spawn k ~name:"reader" (fun sys ->
        (* Poll until the writer's file shows up: real IPC through the FS. *)
        let rec wait tries =
          if tries = 0 then 1
          else
            match sys.Kproc.Kernel.openf "/mailbox" with
            | Ok fd ->
                reader_result := ok (sys.Kproc.Kernel.read fd ~len:16);
                ignore (ok (sys.Kproc.Kernel.close fd));
                0
            | Error Ksim.Errno.ENOENT ->
                sys.Kproc.Kernel.yield ();
                wait (tries - 1)
            | Error e -> fail (Ksim.Errno.to_string e)
        in
        wait 100)
  in
  Kproc.Kernel.run k;
  check (Alcotest.option Alcotest.int) "writer ok" (Some 0) (Kproc.Kernel.exit_code k writer);
  check (Alcotest.option Alcotest.int) "reader ok" (Some 0) (Kproc.Kernel.exit_code k reader);
  check Alcotest.string "message delivered" "ping" !reader_result

let test_memory_is_private () =
  let k = Kproc.Kernel.boot () in
  let addr_of_a = ref 0 in
  let a_saw = ref "" in
  let _a =
    Kproc.Kernel.spawn k ~name:"a" (fun sys ->
        let addr = ok (sys.Kproc.Kernel.mmap ~len:64 ~prot:Kmm.Addr_space.prot_rw) in
        addr_of_a := addr;
        ok (sys.Kproc.Kernel.mwrite ~addr "secret-of-a");
        (* Let b run, then check the memory is untouched. *)
        sys.Kproc.Kernel.yield ();
        sys.Kproc.Kernel.yield ();
        a_saw := ok (sys.Kproc.Kernel.mread ~addr ~len:11);
        0)
  in
  let b_result = ref (Ok "") in
  let _b =
    Kproc.Kernel.spawn k ~name:"b" (fun sys ->
        (* b maps its own memory at (very likely) the same virtual address:
           separate address spaces, no interference. *)
        let addr = ok (sys.Kproc.Kernel.mmap ~len:64 ~prot:Kmm.Addr_space.prot_rw) in
        b_result := sys.Kproc.Kernel.mread ~addr ~len:11;
        ok (sys.Kproc.Kernel.mwrite ~addr "b-was-here!");
        0)
  in
  Kproc.Kernel.run k;
  check Alcotest.string "a's memory intact" "secret-of-a" !a_saw;
  (* b saw zeros, never a's secret. *)
  check Alcotest.bool "b saw zeros" true (!b_result = Ok (String.make 11 '\000'))

let test_spawn_child_cow () =
  let k = Kproc.Kernel.boot () in
  let parent_view = ref "" and child_view = ref "" in
  let _parent =
    Kproc.Kernel.spawn k ~name:"parent" (fun sys ->
        let addr = ok (sys.Kproc.Kernel.mmap ~len:32 ~prot:Kmm.Addr_space.prot_rw) in
        ok (sys.Kproc.Kernel.mwrite ~addr "inherited");
        let _child =
          sys.Kproc.Kernel.spawn_child ~name:"child" (fun csys ->
              (* The child sees the parent's memory... *)
              child_view := ok (csys.Kproc.Kernel.mread ~addr ~len:9);
              (* ...then diverges privately. *)
              ok (csys.Kproc.Kernel.mwrite ~addr "CHILDMEM!");
              0)
        in
        (* Give the child time to run and write. *)
        for _ = 1 to 10 do
          sys.Kproc.Kernel.yield ()
        done;
        parent_view := ok (sys.Kproc.Kernel.mread ~addr ~len:9);
        0)
  in
  Kproc.Kernel.run k;
  check Alcotest.string "child inherited" "inherited" !child_view;
  check Alcotest.string "parent unaffected by child write" "inherited" !parent_view

let test_crash_containment () =
  let k = Kproc.Kernel.boot () in
  let victim =
    Kproc.Kernel.spawn k ~name:"victim" (fun sys ->
        (* A wild access: EFAULT as a result, not an exception... *)
        (match sys.Kproc.Kernel.mread ~addr:0xdead000 ~len:4 with
        | Error Ksim.Errno.EFAULT -> ()
        | _ -> fail "expected EFAULT");
        (* ...and an actual uncaught exception segfaults only this process. *)
        failwith "null pointer dereference")
  in
  let survivor =
    Kproc.Kernel.spawn k ~name:"survivor" (fun sys ->
        ignore (ok (sys.Kproc.Kernel.mkdir "/still-alive"));
        0)
  in
  Kproc.Kernel.run k;
  check (Alcotest.option Alcotest.int) "victim segfaulted" (Some 139)
    (Kproc.Kernel.exit_code k victim);
  check (Alcotest.option Alcotest.int) "survivor fine" (Some 0)
    (Kproc.Kernel.exit_code k survivor);
  check Alcotest.(list int) "crash list" [ victim ] (Kproc.Kernel.crashed k)

let test_exit_code_plumbing () =
  let k = Kproc.Kernel.boot () in
  let p1 = Kproc.Kernel.spawn k ~name:"seven" (fun sys -> sys.Kproc.Kernel.exit 7; 0) in
  let p2 = Kproc.Kernel.spawn k ~name:"direct" (fun _ -> 3) in
  Kproc.Kernel.run k;
  check (Alcotest.option Alcotest.int) "exit 7" (Some 7) (Kproc.Kernel.exit_code k p1);
  check (Alcotest.option Alcotest.int) "return 3" (Some 3) (Kproc.Kernel.exit_code k p2);
  check (Alcotest.option Alcotest.int) "unknown pid" None (Kproc.Kernel.exit_code k 999)

let test_many_processes_deterministic () =
  let run () =
    let k = Kproc.Kernel.boot () in
    let log = ref [] in
    for i = 1 to 5 do
      ignore
        (Kproc.Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun sys ->
             let fd =
               ok (sys.Kproc.Kernel.openf
                     ~flags:[ Kvfs.File_ops.O_WRONLY; Kvfs.File_ops.O_CREAT ]
                     (Printf.sprintf "/f%d" i))
             in
             ignore (ok (sys.Kproc.Kernel.write fd (string_of_int i)));
             log := i :: !log;
             ignore (ok (sys.Kproc.Kernel.close fd));
             0))
    done;
    Kproc.Kernel.run k;
    (!log, ok (Kvfs.File_ops.readdir (Kvfs.File_ops.create (Kproc.Kernel.vfs k)) "/"))
  in
  let log1, dir1 = run () in
  let log2, dir2 = run () in
  check Alcotest.(list int) "same schedule" log1 log2;
  check Alcotest.(list string) "same namespace" dir1 dir2;
  check Alcotest.int "five files" 5 (List.length dir1)

let test_frames_reclaimed_after_exit () =
  let k = Kproc.Kernel.boot ~frames:32 ~page_size:64 () in
  for i = 1 to 4 do
    ignore
      (Kproc.Kernel.spawn k ~name:(Printf.sprintf "hog%d" i) (fun sys ->
           let addr = ok (sys.Kproc.Kernel.mmap ~len:512 ~prot:Kmm.Addr_space.prot_rw) in
           ok (sys.Kproc.Kernel.mwrite ~addr (String.make 512 'h'));
           0))
  done;
  (* 4 hogs x 8 pages = 32 frames: only possible if exits release memory. *)
  Kproc.Kernel.run k;
  check Alcotest.int "all exited" 0 (Kproc.Kernel.running k);
  check Alcotest.(list int) "no crashes" [] (Kproc.Kernel.crashed k)

let test_pipe_producer_consumer () =
  let k = Kproc.Kernel.boot () in
  let received = ref "" in
  let _producer_consumer =
    Kproc.Kernel.spawn k ~name:"parent" (fun sys ->
        let rfd, wfd = ok (sys.Kproc.Kernel.pipe ()) in
        let consumer =
          sys.Kproc.Kernel.spawn_child ~name:"consumer" (fun csys ->
              let rec drain acc =
                match ok (csys.Kproc.Kernel.pread rfd ~len:8) with
                | "" ->
                    received := acc;
                    0
                | chunk -> drain (acc ^ chunk)
              in
              drain "")
        in
        ignore (ok (sys.Kproc.Kernel.pwrite wfd "first "));
        ignore (ok (sys.Kproc.Kernel.pwrite wfd "second "));
        ignore (ok (sys.Kproc.Kernel.pwrite wfd "third"));
        ignore (ok (sys.Kproc.Kernel.pclose wfd));
        (* EOF lets the consumer finish; wait for its code. *)
        match ok (sys.Kproc.Kernel.wait consumer) with 0 -> 0 | c -> c)
  in
  Kproc.Kernel.run k;
  check Alcotest.string "all chunks in order" "first second third" !received;
  check Alcotest.(list int) "nobody crashed" [] (Kproc.Kernel.crashed k)

let test_pipe_epipe_and_ebadf () =
  let k = Kproc.Kernel.boot () in
  let _p =
    Kproc.Kernel.spawn k ~name:"p" (fun sys ->
        let rfd, wfd = ok (sys.Kproc.Kernel.pipe ()) in
        ignore (ok (sys.Kproc.Kernel.pclose rfd));
        (match sys.Kproc.Kernel.pwrite wfd "x" with
        | Error Ksim.Errno.EPIPE -> ()
        | _ -> fail "expected EPIPE");
        (match sys.Kproc.Kernel.pread wfd ~len:1 with
        | Error Ksim.Errno.EBADF -> ()
        | _ -> fail "read on write end");
        (match sys.Kproc.Kernel.pread 42_424 ~len:1 with
        | Error Ksim.Errno.EBADF -> ()
        | _ -> fail "bogus fd");
        0)
  in
  Kproc.Kernel.run k;
  check Alcotest.(list int) "clean" [] (Kproc.Kernel.crashed k)

let test_wait_for_child () =
  let k = Kproc.Kernel.boot () in
  let observed = ref (-1) in
  let _parent =
    Kproc.Kernel.spawn k ~name:"parent" (fun sys ->
        let child =
          sys.Kproc.Kernel.spawn_child ~name:"slow-child" (fun csys ->
              for _ = 1 to 10 do
                csys.Kproc.Kernel.yield ()
              done;
              42)
        in
        observed := ok (sys.Kproc.Kernel.wait child);
        0)
  in
  Kproc.Kernel.run k;
  check Alcotest.int "saw child's code" 42 !observed

let test_wait_unknown_pid () =
  let k = Kproc.Kernel.boot () in
  let _p =
    Kproc.Kernel.spawn k ~name:"p" (fun sys ->
        match sys.Kproc.Kernel.wait 777 with
        | Error Ksim.Errno.EINVAL -> 0
        | _ -> 1)
  in
  Kproc.Kernel.run k;
  check Alcotest.(list int) "clean" [] (Kproc.Kernel.crashed k)

(* A kernel hands every program the same [sys] record; a call acts on
   the process that makes it.  Both processes get fd 3, the first of
   their own tables, and each write lands in its own file. *)
let test_one_sys_per_kernel () =
  let k = Kproc.Kernel.boot () in
  let handed = ref [] in
  let prog path data (sys : Kproc.Kernel.sys) =
    handed := sys :: !handed;
    let fd = ok (sys.openf ~flags:[ Kvfs.File_ops.O_RDWR; Kvfs.File_ops.O_CREAT ] path) in
    ignore (ok (sys.write fd data));
    ignore (ok (sys.close fd));
    fd
  in
  let a = Kproc.Kernel.spawn k ~name:"a" (prog "/a" "from a") in
  let b = Kproc.Kernel.spawn k ~name:"b" (prog "/b" "from b") in
  Kproc.Kernel.run k;
  (match !handed with
  | [ sb; sa ] -> check Alcotest.bool "one sys record" true (sa == sb)
  | l -> fail (Printf.sprintf "%d programs ran" (List.length l)));
  check (Alcotest.option Alcotest.int) "a's own first fd" (Some 3) (Kproc.Kernel.exit_code k a);
  check (Alcotest.option Alcotest.int) "b's own first fd" (Some 3) (Kproc.Kernel.exit_code k b);
  List.iter
    (fun (path, want) ->
      match
        Kvfs.Vfs.apply (Kproc.Kernel.vfs k)
          (Kspec.Fs_spec.Read { file = Kspec.Fs_spec.path_of_string path; off = 0; len = 64 })
      with
      | Ok (Kspec.Fs_spec.Data data) -> check Alcotest.string path want data
      | _ -> fail (path ^ " missing"))
    [ ("/a", "from a"); ("/b", "from b") ];
  (* With no process running there is no caller to act on. *)
  match (List.hd !handed).openf "/a" with
  | exception Ksim.Kthread.Not_in_scheduler -> ()
  | _ -> fail "a syscall outside run acted on some process"

(* What a process costs before it runs: no address space until its
   first memory syscall, and no syscall record of its own. *)
let test_spawn_allocates_little () =
  let k = Kproc.Kernel.boot () in
  let prog (sys : Kproc.Kernel.sys) =
    match sys.readdir "/" with Ok _ -> 0 | Error _ -> 1
  in
  let n = 4_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Kproc.Kernel.spawn k ~name:"tenant" prog)
  done;
  let per_proc = (Gc.minor_words () -. before) /. float_of_int n in
  Kproc.Kernel.run k;
  check Alcotest.int "all exited" 0 (Kproc.Kernel.running k);
  check Alcotest.(list int) "none crashed" [] (Kproc.Kernel.crashed k);
  check Alcotest.bool
    (Printf.sprintf "%.1f minor words per spawned process" per_proc)
    true (per_proc < 80.)

let () =
  Alcotest.run "kproc"
    [
      ( "kernel",
        [
          Alcotest.test_case "hello process" `Quick test_hello_process;
          Alcotest.test_case "shared namespace" `Quick test_processes_share_namespace;
          Alcotest.test_case "private memory" `Quick test_memory_is_private;
          Alcotest.test_case "spawn_child COW" `Quick test_spawn_child_cow;
          Alcotest.test_case "crash containment" `Quick test_crash_containment;
          Alcotest.test_case "exit codes" `Quick test_exit_code_plumbing;
          Alcotest.test_case "deterministic schedule" `Quick test_many_processes_deterministic;
          Alcotest.test_case "frames reclaimed" `Quick test_frames_reclaimed_after_exit;
          Alcotest.test_case "one sys per kernel" `Quick test_one_sys_per_kernel;
          Alcotest.test_case "spawn allocates little" `Quick test_spawn_allocates_little;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "pipe producer/consumer" `Quick test_pipe_producer_consumer;
          Alcotest.test_case "EPIPE and EBADF" `Quick test_pipe_epipe_and_ebadf;
          Alcotest.test_case "wait for child" `Quick test_wait_for_child;
          Alcotest.test_case "wait unknown pid" `Quick test_wait_unknown_pid;
        ] );
    ]
