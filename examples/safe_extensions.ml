(* Two ways to extend a kernel without trusting the extension.

   Part 1 — the eBPF-shaped path (related work): load a small program
   through a static verifier; it can observe and filter, but its
   expressiveness is capped (no loops), so it can never be a file system.

   Part 2 — the paper's §4.4 concurrency note, upgraded to the krefine
   enumerator: per-thread op streams are merged under many seeded
   interleavings and every merge is checked, step by step, against the
   abstract spec.  Pure queries over an immutable snapshot stay
   schedule-insensitive; a buggy implementation is convicted with a
   minimal counterexample trace.

     dune exec examples/safe_extensions.exe
*)

let () =
  Fmt.pr "== part 1: the verified extension VM ==@.@.";
  let prog = Kebpf.Attach.packet_kind_filter ~kind:1 ~min_len:4 in
  Fmt.pr "a packet filter, as the verifier sees it:@.";
  Kebpf.Insn.pp_program Format.std_formatter prog;
  Format.pp_print_flush Format.std_formatter ();
  (match Kebpf.Attach.attach_filter prog with
  | Error r -> Fmt.pr "rejected: %a@." Kebpf.Verifier.pp_rejection r
  | Ok filter ->
      Fmt.pr "@.verifier: accepted (static trip bound: %d instructions)@."
        (Kebpf.Verifier.max_trip_count prog);
      List.iter
        (fun packet ->
          Fmt.pr "  %-24s -> %s@."
            (String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                                 (List.init (String.length packet) (String.get packet))))
            (if Kebpf.Attach.filter_packet filter packet then "accept" else "drop"))
        [ "\001abcd"; "\002abcd"; "\001a"; "" ]);
  Fmt.pr "@.and the program that cannot exist:@.";
  (match Kebpf.Vm.load Kebpf.Attach.looping_program with
  | Ok _ -> Fmt.pr "  loop accepted?!@."
  | Error r ->
      Fmt.pr "  %a@." Kebpf.Verifier.pp_rejection r;
      Fmt.pr "  no loops means no directory walks: observation yes, file system no.@.");

  Fmt.pr "@.== part 2: the krefine enumerator over seeded interleavings ==@.@.";
  (* Build a populated FS, take its abstract snapshot, fan out queries
     — immutable snapshots stay schedule-insensitive by construction. *)
  let fs = Kfs.Memfs_typed.mkfs () in
  let trace = Kfs.Workload.generate ~seed:13 Kfs.Workload.Mixed ~ops:400 in
  List.iter (fun op -> ignore (Kfs.Memfs_typed.apply fs op)) trace;
  let snapshot = Kspec.Fs_spec.of_bindings (Kfs.Memfs_typed.interpret fs) in
  Fmt.pr "snapshot: files=%d dirs=%d bytes=%d max-depth=%d — fixed under any schedule@."
    (Kspec.Krefine.count_files snapshot)
    (Kspec.Krefine.count_dirs snapshot)
    (Kspec.Krefine.total_bytes snapshot)
    (Kspec.Krefine.max_depth snapshot);
  (* Three writer threads on disjoint directories: every seeded merge of
     their op streams must refine the abstract map. *)
  let module M = struct
    type vars = Kfs.Memfs_typed.fs

    let name = "memfs_typed"
    let init () = Kfs.Memfs_typed.mkfs ()
    let step v op = (v, Kfs.Memfs_typed.apply v op)
    let interp = Kfs.Memfs_typed.interpret
    let inv _ = true
    let crash_images _ ~limit:_ = []
  end in
  let stream d =
    let open Kspec.Fs_spec in
    let p s = path_of_string s in
    [
      Mkdir (p ("/" ^ d));
      Create (p ("/" ^ d ^ "/f"));
      Write { file = p ("/" ^ d ^ "/f"); off = 0; data = d };
      Readdir (p ("/" ^ d));
    ]
  in
  let cov =
    Kspec.Krefine.explore ~interleavings:64 (module M) [ stream "a"; stream "b"; stream "c" ]
  in
  Fmt.pr "@.three writer streams, 64 seeded interleavings: %a@." Kspec.Krefine.pp_coverage cov;
  (* The contrast: a machine that drops a dirent on rename is convicted,
     and the enumerator shrinks the failure to a minimal trace. *)
  let module Buggy = struct
    include M

    let name = "memfs+lost-rename"

    let step v op =
      match op with
      | Kspec.Fs_spec.Rename (src, _) -> (v, Kfs.Memfs_typed.apply v (Kspec.Fs_spec.Unlink src))
      | _ -> (v, Kfs.Memfs_typed.apply v op)
  end in
  let open Kspec.Fs_spec in
  let p s = path_of_string s in
  let bad =
    Kspec.Krefine.run
      (module Buggy)
      (stream "a" @ [ Create (p "/x"); Rename (p "/x", p "/y"); Stat (p "/y") ])
  in
  match bad.Kspec.Krefine.divergences with
  | d :: _ ->
      Fmt.pr "@.buggy rename convicted: %a@." Kspec.Krefine.pp_divergence d;
      Fmt.pr "  minimal counterexample: %d op(s)@."
        (List.length d.Kspec.Krefine.counterexample)
  | [] -> Fmt.pr "@.buggy rename escaped?!@."
