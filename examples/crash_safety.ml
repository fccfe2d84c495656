(* Crash-safety, demonstrated: the same file-system engine run twice —
   once behind the write-ahead journal, once writing in place — over a
   volatile write-back disk, crashed after every operation, each crash
   image (a cache-loss residue) recovered and checked against the
   crash-safe specification by the refinement checker.

     dune exec examples/crash_safety.exe
*)

open Kspec

let p = Fs_spec.path_of_string

let trace =
  [
    Fs_spec.Mkdir (p "/home");
    Fs_spec.Create (p "/home/notes.txt");
    Fs_spec.Write { file = p "/home/notes.txt"; off = 0; data = "draft 1" };
    Fs_spec.Fsync;
    (* everything below may be lost in a crash — but only as whole
       operations, never as torn ones *)
    Fs_spec.Write { file = p "/home/notes.txt"; off = 0; data = "draft 2" };
    Fs_spec.Create (p "/home/todo.txt");
    Fs_spec.Rename (p "/home/todo.txt", p "/home/plan.txt");
    Fs_spec.Write { file = p "/home/plan.txt"; off = 0; data = "ship it" };
    Fs_spec.Unlink (p "/home/notes.txt");
  ]

let report name machine =
  let cov = Kharness.crash_check ~images:24 machine trace in
  Fmt.pr "%-10s  crash points: %2d   images checked: %3d   violations: %d   -> %s@." name
    cov.crash_points cov.crash_images (List.length cov.divergences)
    (if Krefine.is_clean cov then "CRASH-SAFE" else "NOT crash-safe");
  List.iteri (fun i d -> if i < 4 then Fmt.pr "     %a@." Krefine.pp_divergence d) cov.divergences

let () =
  Fmt.pr "trace (%d ops, fsync after op 4):@." (List.length trace);
  List.iteri (fun i op -> Fmt.pr "  %2d. %a@." i Fs_spec.pp_op op) trace;
  Fmt.pr "@.";
  report "journaled" (Kharness.journalfs_machine Kfs.Journalfs.Journaled);
  report "direct" (Kharness.journalfs_machine Kfs.Journalfs.Direct);
  Fmt.pr "@.";

  (* Peek inside: what recovery actually does after a crash.  The FS
     writes straight to the device here, so the crash loses only the
     mounted instance's memory: remount the device as the trace left it. *)
  let fs = Kfs.Journalfs.Journaled_fs.mkfs () in
  List.iter (fun op -> ignore (Kfs.Journalfs.apply fs op)) trace;
  let recovered = Kfs.Journalfs.mount Kfs.Journalfs.Journaled (Kfs.Journalfs.device fs) in
  (match Kfs.Journalfs.journal_stats recovered with
  | Some stats ->
      Fmt.pr "after a crash at the very end, journal recovery replayed %d transaction(s)@."
        stats.Kblock.Journal.replayed_txs
  | None -> ());
  Fmt.pr "recovered namespace:@.";
  Fs_spec.Pathmap.iter
    (fun path node ->
      Fmt.pr "  %-18s %s@." (Fs_spec.path_to_string path)
        (match node with
        | Fs_spec.File content -> Printf.sprintf "file %S" content
        | Fs_spec.Dir -> "dir"))
    (Fs_spec.of_bindings (Kfs.Journalfs.interpret recovered));
  Fmt.pr "@.allowed recoveries under the crash-safe spec: %d distinct states@."
    (List.length (Fs_spec.Crash_safe.allowed_recoveries trace))
