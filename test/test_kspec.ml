(* Tests for the specification layer: the abstract FS model, refinement
   checking, axiomatic block models, and the crash-safe specification. *)

open Kspec

let check = Alcotest.check
let fail = Alcotest.fail
let p = Fs_spec.path_of_string

let result_t : Fs_spec.result Alcotest.testable =
  Alcotest.testable Fs_spec.pp_result Fs_spec.equal_result

let state_t : Fs_spec.state Alcotest.testable = Alcotest.testable Fs_spec.pp Fs_spec.equal

let run ops = List.fold_left (fun st op -> fst (Fs_spec.step st op)) Fs_spec.empty ops

let step_result st op = snd (Fs_spec.step st op)

(* Paths --------------------------------------------------------------------- *)

let test_path_parsing () =
  check Alcotest.(list string) "split" [ "a"; "b" ] (p "/a/b");
  check Alcotest.(list string) "extra slashes" [ "a"; "b" ] (p "//a//b/");
  check Alcotest.(list string) "root" [] (p "/");
  check Alcotest.string "print root" "/" (Fs_spec.path_to_string []);
  check Alcotest.string "print" "/a/b" (Fs_spec.path_to_string [ "a"; "b" ])

let test_path_prefix () =
  check Alcotest.bool "prefix" true (Fs_spec.is_prefix (p "/a") (p "/a/b"));
  check Alcotest.bool "self" true (Fs_spec.is_prefix (p "/a") (p "/a"));
  check Alcotest.bool "not prefix" false (Fs_spec.is_prefix (p "/a/b") (p "/a"));
  check Alcotest.(option (list string)) "strip" (Some [ "c" ])
    (Fs_spec.strip_prefix (p "/a/b") (p "/a/b/c"));
  check Alcotest.(option (list string)) "parent" (Some [ "a" ]) (Fs_spec.parent (p "/a/b"));
  check Alcotest.(option (list string)) "parent of root" None (Fs_spec.parent []);
  check Alcotest.(option string) "basename" (Some "b") (Fs_spec.basename (p "/a/b"))

(* Basic operation semantics -------------------------------------------------- *)

let test_create_read_write () =
  let st = run [ Create (p "/f") ] in
  check result_t "read empty" (Ok (Fs_spec.Data "")) (step_result st (Read { file = p "/f"; off = 0; len = 10 }));
  let st = fst (Fs_spec.step st (Write { file = p "/f"; off = 0; data = "hello" })) in
  check result_t "read back" (Ok (Fs_spec.Data "hello"))
    (step_result st (Read { file = p "/f"; off = 0; len = 10 }));
  check result_t "partial read" (Ok (Fs_spec.Data "ell"))
    (step_result st (Read { file = p "/f"; off = 1; len = 3 }));
  check result_t "read past eof" (Ok (Fs_spec.Data ""))
    (step_result st (Read { file = p "/f"; off = 100; len = 3 }))

let test_sparse_write () =
  let st = run [ Create (p "/f"); Write { file = p "/f"; off = 3; data = "x" } ] in
  check result_t "zero filled" (Ok (Fs_spec.Data "\000\000\000x"))
    (step_result st (Read { file = p "/f"; off = 0; len = 10 }))

let test_overwrite_middle () =
  let st =
    run
      [ Create (p "/f");
        Write { file = p "/f"; off = 0; data = "abcdef" };
        Write { file = p "/f"; off = 2; data = "XY" } ]
  in
  check result_t "spliced" (Ok (Fs_spec.Data "abXYef"))
    (step_result st (Read { file = p "/f"; off = 0; len = 10 }))

let test_create_errors () =
  let st = run [ Create (p "/f") ] in
  check result_t "exists" (Error Ksim.Errno.EEXIST) (step_result st (Create (p "/f")));
  check result_t "no parent" (Error Ksim.Errno.ENOENT) (step_result st (Create (p "/d/g")));
  check result_t "parent is file" (Error Ksim.Errno.ENOENT) (step_result st (Create (p "/f/g")));
  check result_t "root" (Error Ksim.Errno.EINVAL) (step_result st (Create []))

let test_mkdir_and_nesting () =
  let st = run [ Mkdir (p "/a"); Mkdir (p "/a/b"); Create (p "/a/b/f") ] in
  check result_t "stat dir" (Ok (Fs_spec.Attr { kind = `Dir; size = 0 })) (step_result st (Stat (p "/a/b")));
  check result_t "readdir" (Ok (Fs_spec.Names [ "f" ])) (step_result st (Readdir (p "/a/b")));
  check result_t "readdir root" (Ok (Fs_spec.Names [ "a" ])) (step_result st (Readdir []))

let test_write_errors () =
  let st = run [ Mkdir (p "/d") ] in
  check result_t "write dir" (Error Ksim.Errno.EISDIR)
    (step_result st (Write { file = p "/d"; off = 0; data = "x" }));
  check result_t "write root" (Error Ksim.Errno.EISDIR)
    (step_result st (Write { file = []; off = 0; data = "x" }));
  check result_t "write missing" (Error Ksim.Errno.ENOENT)
    (step_result st (Write { file = p "/nope"; off = 0; data = "x" }));
  check result_t "negative offset" (Error Ksim.Errno.EINVAL)
    (step_result st (Write { file = p "/d"; off = -1; data = "x" }))

let test_truncate () =
  let st = run [ Create (p "/f"); Write { file = p "/f"; off = 0; data = "abcdef" } ] in
  let st = fst (Fs_spec.step st (Truncate (p "/f", 3))) in
  check result_t "shrunk" (Ok (Fs_spec.Data "abc"))
    (step_result st (Read { file = p "/f"; off = 0; len = 10 }));
  let st = fst (Fs_spec.step st (Truncate (p "/f", 5))) in
  check result_t "zero extended" (Ok (Fs_spec.Data "abc\000\000"))
    (step_result st (Read { file = p "/f"; off = 0; len = 10 }));
  check result_t "negative" (Error Ksim.Errno.EINVAL) (step_result st (Truncate (p "/f", -1)))

let test_unlink_rmdir () =
  let st = run [ Mkdir (p "/d"); Create (p "/d/f") ] in
  check result_t "unlink dir" (Error Ksim.Errno.EISDIR) (step_result st (Unlink (p "/d")));
  check result_t "rmdir nonempty" (Error Ksim.Errno.ENOTEMPTY) (step_result st (Rmdir (p "/d")));
  check result_t "rmdir file" (Error Ksim.Errno.ENOTDIR) (step_result st (Rmdir (p "/d/f")));
  let st = fst (Fs_spec.step st (Unlink (p "/d/f"))) in
  check result_t "then rmdir ok" (Ok Fs_spec.Unit) (step_result st (Rmdir (p "/d")));
  check result_t "rmdir root" (Error Ksim.Errno.EBUSY) (step_result st (Rmdir []));
  check result_t "unlink root" (Error Ksim.Errno.EISDIR) (step_result st (Unlink []))

(* Rename: the prefix-substitution relation ------------------------------------ *)

let test_rename_file () =
  let st = run [ Create (p "/a"); Write { file = p "/a"; off = 0; data = "v" }; Rename (p "/a", p "/b") ] in
  check result_t "gone" (Error Ksim.Errno.ENOENT) (step_result st (Stat (p "/a")));
  check result_t "moved" (Ok (Fs_spec.Data "v")) (step_result st (Read { file = p "/b"; off = 0; len = 2 }))

let test_rename_dir_subtree () =
  let st =
    run
      [ Mkdir (p "/x"); Mkdir (p "/x/y"); Create (p "/x/y/f");
        Write { file = p "/x/y/f"; off = 0; data = "deep" }; Rename (p "/x", p "/z") ]
  in
  (* Every key with prefix /x was substituted with /z. *)
  check result_t "deep file moved" (Ok (Fs_spec.Data "deep"))
    (step_result st (Read { file = p "/z/y/f"; off = 0; len = 10 }));
  check result_t "old root gone" (Error Ksim.Errno.ENOENT) (step_result st (Stat (p "/x")));
  check Alcotest.bool "still well-formed" true (Fs_spec.wf st)

let test_rename_over_existing_file () =
  let st =
    run
      [ Create (p "/a"); Write { file = p "/a"; off = 0; data = "new" };
        Create (p "/b"); Write { file = p "/b"; off = 0; data = "old" };
        Rename (p "/a", p "/b") ]
  in
  check result_t "replaced" (Ok (Fs_spec.Data "new"))
    (step_result st (Read { file = p "/b"; off = 0; len = 10 }))

let test_rename_errors () =
  let st = run [ Mkdir (p "/d"); Create (p "/d/f"); Create (p "/g"); Mkdir (p "/e") ] in
  check result_t "into own subtree" (Error Ksim.Errno.EINVAL)
    (step_result st (Rename (p "/d", p "/d/sub")));
  check result_t "file over dir" (Error Ksim.Errno.EISDIR)
    (step_result st (Rename (p "/g", p "/d")));
  check result_t "dir over file" (Error Ksim.Errno.ENOTDIR)
    (step_result st (Rename (p "/d", p "/g")));
  check result_t "dir over nonempty dir" (Error Ksim.Errno.ENOTEMPTY)
    (step_result st (Rename (p "/e", p "/d")));
  check result_t "missing src" (Error Ksim.Errno.ENOENT)
    (step_result st (Rename (p "/nope", p "/x")));
  check result_t "src is root" (Error Ksim.Errno.ENOENT) (step_result st (Rename ([], p "/x")));
  check result_t "dst is root" (Error Ksim.Errno.EINVAL) (step_result st (Rename (p "/g", [])));
  check result_t "rename to self" (Ok Fs_spec.Unit) (step_result st (Rename (p "/g", p "/g")))

let test_rename_dir_over_empty_dir () =
  let st = run [ Mkdir (p "/a"); Create (p "/a/f"); Mkdir (p "/b"); Rename (p "/a", p "/b") ] in
  check result_t "content moved" (Ok (Fs_spec.Names [ "f" ])) (step_result st (Readdir (p "/b")))

(* Well-formedness is preserved by arbitrary traces --------------------------- *)

let gen_name = QCheck2.Gen.oneofl [ "a"; "b"; "c"; "d" ]

let gen_path = QCheck2.Gen.(list_size (int_range 1 3) gen_name)

let gen_op =
  let open QCheck2.Gen in
  oneof
    [
      map (fun pa -> Fs_spec.Create pa) gen_path;
      map (fun pa -> Fs_spec.Mkdir pa) gen_path;
      map2
        (fun pa data -> Fs_spec.Write { file = pa; off = 0; data })
        gen_path (string_size ~gen:printable (int_range 0 8));
      map (fun pa -> Fs_spec.Read { file = pa; off = 0; len = 16 }) gen_path;
      map2 (fun pa n -> Fs_spec.Truncate (pa, n)) gen_path (int_range 0 12);
      map (fun pa -> Fs_spec.Unlink pa) gen_path;
      map (fun pa -> Fs_spec.Rmdir pa) gen_path;
      map2 (fun a b -> Fs_spec.Rename (a, b)) gen_path gen_path;
      map (fun pa -> Fs_spec.Readdir pa) gen_path;
      map (fun pa -> Fs_spec.Stat pa) gen_path;
      return Fs_spec.Fsync;
    ]

let gen_trace = QCheck2.Gen.(list_size (int_range 0 60) gen_op)

let prop_wf_preserved =
  QCheck2.Test.make ~name:"spec state stays well-formed" ~count:300 gen_trace (fun ops ->
      Fs_spec.wf (run ops))

(* Pathmap keys compare with [List.compare String.compare]; folds, and so
   [children], [pp] and every coverage fingerprint, rely on that being
   exactly polymorphic [compare]'s order.  Components include the empty
   string and bytes >= 0x80, and both paths share a random prefix. *)
let gen_component =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ ""; "a"; "ab"; "b"; "\x7f"; "\x80"; "a\xff"; "\xff" ];
        string_size ~gen:char (int_range 0 3);
      ])

let gen_components = QCheck2.Gen.(list_size (int_range 0 3) gen_component)

let prop_pathmap_order_is_compare =
  QCheck2.Test.make ~name:"pathmap order = polymorphic compare" ~count:1000
    QCheck2.Gen.(triple gen_components gen_components gen_components)
    (fun (prefix, a, b) ->
      let a = prefix @ a and b = prefix @ b in
      let sign x = Int.compare x 0 in
      sign (List.compare String.compare a b) = sign (compare a b)
      && List.map fst Fs_spec.Pathmap.(bindings (add a () (singleton b ())))
         = List.sort_uniq compare [ a; b ])

(* [equal_bindings] decides exactly [equal s (of_bindings b)], by the zip
   or by its fallback, over listings made from a random state's bindings:
   exact, reversed, shuffled, one binding dropped, added or changed, a
   path repeated before or after with another node.  Each listing is
   compared with its own state and with an unrelated one. *)
let gen_node =
  QCheck2.Gen.(
    oneof
      [
        return Fs_spec.Dir;
        map (fun c -> Fs_spec.File c) (string_size ~gen:printable (int_range 0 3));
      ])

let edit_listing kind (i, path, node, seed) b =
  let i = if b = [] then 0 else i mod List.length b in
  let at_i f = List.concat (List.mapi (fun j x -> if j = i then f x else [ x ]) b) in
  match kind with
  | 0 -> b
  | 1 -> List.rev b
  | 2 ->
      let rng = Random.State.make [| seed |] in
      List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) b))
  | 3 -> at_i (fun _ -> [])
  | 4 -> if b = [] then [ (path, node) ] else at_i (fun x -> [ (path, node); x ])
  | 5 -> at_i (fun (p, _) -> [ (p, node) ])
  | 6 -> at_i (fun (p, n) -> [ (p, node); (p, n) ])
  | _ -> at_i (fun (p, n) -> [ (p, n); (p, node) ])

let prop_equal_bindings_exact =
  QCheck2.Test.make ~name:"equal_bindings s b = equal s (of_bindings b)" ~count:1000
    QCheck2.Gen.(
      triple (pair gen_trace gen_trace) (int_range 0 7) (quad nat gen_path gen_node int))
    (fun ((ops, other), kind, edit) ->
      let s = run ops in
      let b = edit_listing kind edit (Fs_spec.Pathmap.bindings s) in
      List.for_all
        (fun s -> Fs_spec.equal_bindings s b = Fs_spec.equal s (Fs_spec.of_bindings b))
        [ s; run other ])

let prop_failed_ops_preserve_state =
  QCheck2.Test.make ~name:"failed ops leave state unchanged" ~count:300 gen_trace (fun ops ->
      List.for_all
        (fun (st, op) ->
          let st', r = Fs_spec.step st op in
          match r with Error _ -> Fs_spec.equal st st' | Ok _ -> true)
        (List.fold_left
           (fun (acc, st) op -> ((st, op) :: acc, fst (Fs_spec.step st op)))
           ([], Fs_spec.empty) ops
        |> fst))

let prop_read_after_write =
  QCheck2.Test.make ~name:"read-after-write returns written data" ~count:300
    QCheck2.Gen.(pair gen_path (string_size ~gen:printable (int_range 0 16)))
    (fun (file, data) ->
      let st, created = Fs_spec.step (run [ Fs_spec.Mkdir [ "a" ]; Fs_spec.Mkdir [ "b" ] ]) (Create file) in
      match created with
      | Error _ -> true (* invalid path for a file; nothing to check *)
      | Ok _ ->
          let st, w = Fs_spec.step st (Write { file; off = 0; data }) in
          let _, r = Fs_spec.step st (Read { file; off = 0; len = String.length data }) in
          w = Ok Fs_spec.Unit && r = Ok (Fs_spec.Data data))

let prop_rename_is_prefix_substitution =
  (* The paper's definition: after rename(src, dst), the set of keys is
     exactly the old set with prefix src substituted by dst. *)
  QCheck2.Test.make ~name:"rename = prefix substitution on the path map" ~count:300
    QCheck2.Gen.(triple gen_trace gen_path gen_path)
    (fun (ops, src, dst) ->
      let st = run ops in
      let st', r = Fs_spec.step st (Fs_spec.Rename (src, dst)) in
      match r with
      | Error _ -> true
      | Ok _ when src = dst -> Fs_spec.equal st st'
      | Ok _ ->
          let expected =
            Fs_spec.Pathmap.fold
              (fun path node acc ->
                match Fs_spec.strip_prefix src path with
                | Some suffix -> Fs_spec.Pathmap.add (dst @ suffix) node acc
                | None ->
                    if Fs_spec.is_prefix dst path then acc
                    else Fs_spec.Pathmap.add path node acc)
              st Fs_spec.Pathmap.empty
          in
          Fs_spec.equal expected st')

(* Model ------------------------------------------------------------------------ *)

let test_run_trace_shapes () =
  let ops = [ Fs_spec.Create (p "/f"); Fs_spec.Stat (p "/f") ] in
  let states, results, final = Model.run_trace Fs_spec.step Fs_spec.empty ops in
  check Alcotest.int "n+1 states" 3 (List.length states);
  check Alcotest.int "n results" 2 (List.length results);
  check state_t "final = last" final (List.nth states 2)

let test_relation_of_step () =
  let rel =
    Model.relation_of_step ~state_equal:Fs_spec.equal ~result_equal:Fs_spec.equal_result
      Fs_spec.step
  in
  let st = Fs_spec.empty in
  let st', r = Fs_spec.step st (Fs_spec.Create (p "/f")) in
  check Alcotest.bool "allowed" true (rel st (Fs_spec.Create (p "/f")) (st', r));
  check Alcotest.bool "wrong result rejected" false
    (rel st (Fs_spec.Create (p "/f")) (st', Error Ksim.Errno.EIO))

(* Refinement -------------------------------------------------------------------- *)

(* A correct implementation: directly run the spec (trivially refines). *)
module Spec_impl : Krefine.MACHINE = struct
  type vars = { mutable st : Fs_spec.state }

  let name = "spec_itself"
  let init () = { st = Fs_spec.empty }

  let step t op =
    let st', r = Fs_spec.step t.st op in
    t.st <- st';
    (t, r)

  let interp t = Fs_spec.Pathmap.bindings t.st
  let inv _ = true
  let crash_images _ ~limit:_ = []
end

(* A wrong implementation: unlink forgets to remove the file. *)
module Buggy_unlink : Krefine.MACHINE = struct
  type vars = { mutable st : Fs_spec.state }

  let name = "buggy_unlink"
  let init () = { st = Fs_spec.empty }

  let step t op =
    match op with
    | Fs_spec.Unlink path when Fs_spec.Pathmap.mem path t.st ->
        (t, Ok Fs_spec.Unit) (* lies: returns success without removing *)
    | _ ->
        let st', r = Fs_spec.step t.st op in
        t.st <- st';
        (t, r)

  let interp t = Fs_spec.Pathmap.bindings t.st
  let inv _ = true
  let crash_images _ ~limit:_ = []
end

(* Lockstep only, stopping at the first divergence. *)
let lockstep_config =
  { Krefine.default_config with Krefine.crash_every = 0; shrink = false; max_divergences = 1 }

let test_refine_accepts_correct () =
  let trace = Kfs.Workload.generate ~seed:3 Kfs.Workload.Mixed ~ops:200 in
  let cov = Krefine.run ~config:lockstep_config (module Spec_impl) trace in
  match cov.Krefine.divergences with
  | [] -> check Alcotest.int "all checked" 200 cov.Krefine.ops
  | d :: _ -> fail (Fmt.str "unexpected divergence: %a" Krefine.pp_divergence d)

let test_refine_catches_buggy () =
  let trace =
    [ Fs_spec.Create (p "/f"); Fs_spec.Unlink (p "/f"); Fs_spec.Stat (p "/f") ]
  in
  match (Krefine.run ~config:lockstep_config (module Buggy_unlink) trace).Krefine.divergences with
  | [] -> fail "buggy impl passed refinement"
  | d :: _ -> check Alcotest.int "diverges at unlink" 1 d.Krefine.step_index

let test_monitor_raises_on_divergence () =
  let module M = Krefine.Monitor (Buggy_unlink) in
  let t = M.create () in
  ignore (M.apply t (Fs_spec.Create (p "/f")));
  match M.apply t (Fs_spec.Unlink (p "/f")) with
  | _ -> fail "expected Refinement_failure"
  | exception Krefine.Refinement_failure d ->
      check Alcotest.int "at step 1" 1 d.Krefine.step_index

let test_monitor_counts_ops () =
  let module M = Krefine.Monitor (Spec_impl) in
  let t = M.create () in
  ignore (M.apply t (Fs_spec.Create (p "/f")));
  ignore (M.apply t (Fs_spec.Stat (p "/f")));
  check Alcotest.int "two checked" 2 (M.checked_ops t)

(* Axioms --------------------------------------------------------------------------- *)

let test_axiom_reference_clean () =
  let shim = Axiom.shim (Axiom.reference ~nblocks:8 ~block_size:16) in
  let ops = Axiom.ops shim in
  ops.Axiom.write 3 (Bytes.make 16 'x');
  check Alcotest.string "read back" (String.make 16 'x') (Bytes.to_string (ops.Axiom.read 3));
  ops.Axiom.flush ();
  check Alcotest.int "no violations" 0 (List.length (Axiom.violations shim))

let test_axiom_catches_lying_device () =
  (* A device that forgets writes: reads always return zeros. *)
  let amnesiac =
    {
      Axiom.nblocks = 4;
      block_size = 8;
      read = (fun _ -> Bytes.make 8 '\000');
      write = (fun _ _ -> ());
      flush = (fun () -> ());
    }
  in
  let shim = Axiom.shim ~strict:false amnesiac in
  let ops = Axiom.ops shim in
  ops.Axiom.write 1 (Bytes.make 8 'a');
  ignore (ops.Axiom.read 1);
  check Alcotest.bool "violation recorded" true (Axiom.violations shim <> [])

let test_axiom_catches_short_read () =
  let short =
    {
      Axiom.nblocks = 4;
      block_size = 8;
      read = (fun _ -> Bytes.make 4 '\000') (* wrong size *);
      write = (fun _ _ -> ());
      flush = (fun () -> ());
    }
  in
  let shim = Axiom.shim short in
  (match (Axiom.ops shim).Axiom.read 0 with
  | _ -> fail "expected Axiom_violation"
  | exception Axiom.Axiom_violation v ->
      check Alcotest.string "read axiom" "read" v.Axiom.call);
  ()

let test_axiom_out_of_range () =
  let shim = Axiom.shim (Axiom.reference ~nblocks:2 ~block_size:8) in
  match (Axiom.ops shim).Axiom.read 5 with
  | _ -> fail "expected Axiom_violation"
  | exception Axiom.Axiom_violation _ -> ()

(* Crash-safe spec -------------------------------------------------------------------- *)

let test_crash_safe_fsync_boundary () =
  let open Fs_spec.Crash_safe in
  let c = init in
  let c, _ = step c (Fs_spec.Create (p "/f")) in
  let c, _ = step c (Fs_spec.Write { file = p "/f"; off = 0; data = "v" }) in
  (* No fsync yet: a crash loses everything. *)
  let crashed = crash c in
  check state_t "back to empty" Fs_spec.empty crashed.volatile;
  let c, _ = step c Fs_spec.Fsync in
  let c, _ = step c (Fs_spec.Unlink (p "/f")) in
  let crashed = crash c in
  (* The unlink was not synced: the file is back. *)
  check Alcotest.bool "file survives" true
    (Fs_spec.lookup crashed.volatile (p "/f") = Some (Fs_spec.File "v"))

let test_allowed_recoveries () =
  let ops =
    [ Fs_spec.Create (p "/a"); Fs_spec.Fsync; Fs_spec.Create (p "/b"); Fs_spec.Create (p "/c") ]
  in
  let allowed = Fs_spec.Crash_safe.allowed_recoveries ops in
  (* Prefixes at or after the fsync: {a}, {a,b}, {a,b,c}. *)
  check Alcotest.int "three states" 3 (List.length allowed);
  let has_n n = List.exists (fun st -> Fs_spec.Pathmap.cardinal st = n) allowed in
  check Alcotest.bool "sizes 1..3" true (has_n 1 && has_n 2 && has_n 3);
  (* The pre-fsync empty state is NOT allowed. *)
  check Alcotest.bool "empty disallowed" false
    (Fs_spec.Crash_safe.is_allowed_recovery ops Fs_spec.empty)

let test_allowed_recoveries_no_fsync () =
  let ops = [ Fs_spec.Create (p "/a") ] in
  (* Without any fsync, both the empty state and the post-create state are
     legal recoveries. *)
  check Alcotest.bool "empty ok" true (Fs_spec.Crash_safe.is_allowed_recovery ops Fs_spec.empty);
  check Alcotest.bool "full ok" true
    (Fs_spec.Crash_safe.is_allowed_recovery ops (run ops))

let test_allowed_recoveries_multiple_fsyncs () =
  let ops =
    [ Fs_spec.Create (p "/a"); Fs_spec.Fsync; Fs_spec.Create (p "/b"); Fs_spec.Fsync;
      Fs_spec.Create (p "/c") ]
  in
  let allowed = Fs_spec.Crash_safe.allowed_recoveries ops in
  (* Only prefixes extending the LAST fsync: {a,b} and {a,b,c}. *)
  check Alcotest.int "two states" 2 (List.length allowed);
  check Alcotest.bool "pre-last-fsync disallowed" false
    (List.exists (fun st -> Fs_spec.Pathmap.cardinal st = 1) allowed)

let test_crash_safe_failed_op_prefixes () =
  (* Failed operations are part of the history but change nothing; the
     allowed set collapses duplicates structurally via prefix states. *)
  let ops = [ Fs_spec.Create (p "/a"); Fs_spec.Create (p "/a"); Fs_spec.Fsync ] in
  let allowed = Fs_spec.Crash_safe.allowed_recoveries ops in
  check Alcotest.bool "all allowed states contain /a" true
    (List.for_all (fun st -> Fs_spec.Pathmap.mem (p "/a") st) allowed)

let prop_crash_safe_durable_allowed =
  QCheck2.Test.make ~name:"the durable state is always an allowed recovery" ~count:200 gen_trace
    (fun ops ->
      let final =
        List.fold_left
          (fun c op -> fst (Fs_spec.Crash_safe.step c op))
          Fs_spec.Crash_safe.init ops
      in
      Fs_spec.Crash_safe.is_allowed_recovery ops (Fs_spec.Crash_safe.crash final).volatile)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "kspec"
    [
      ( "paths",
        [
          Alcotest.test_case "parsing" `Quick test_path_parsing;
          Alcotest.test_case "prefix/parent/basename" `Quick test_path_prefix;
        ] );
      ( "fs_spec-ops",
        [
          Alcotest.test_case "create/read/write" `Quick test_create_read_write;
          Alcotest.test_case "sparse write" `Quick test_sparse_write;
          Alcotest.test_case "overwrite middle" `Quick test_overwrite_middle;
          Alcotest.test_case "create errors" `Quick test_create_errors;
          Alcotest.test_case "mkdir/nesting" `Quick test_mkdir_and_nesting;
          Alcotest.test_case "write errors" `Quick test_write_errors;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "unlink/rmdir" `Quick test_unlink_rmdir;
        ] );
      ( "fs_spec-rename",
        [
          Alcotest.test_case "file" `Quick test_rename_file;
          Alcotest.test_case "directory subtree" `Quick test_rename_dir_subtree;
          Alcotest.test_case "over existing file" `Quick test_rename_over_existing_file;
          Alcotest.test_case "error cases" `Quick test_rename_errors;
          Alcotest.test_case "dir over empty dir" `Quick test_rename_dir_over_empty_dir;
        ] );
      ( "fs_spec-properties",
        qcheck
          [
            prop_wf_preserved;
            prop_failed_ops_preserve_state;
            prop_read_after_write;
            prop_rename_is_prefix_substitution;
            prop_pathmap_order_is_compare;
            prop_equal_bindings_exact;
          ] );
      ( "model",
        [
          Alcotest.test_case "run_trace shapes" `Quick test_run_trace_shapes;
          Alcotest.test_case "relation of step" `Quick test_relation_of_step;
        ] );
      ( "refine",
        [
          Alcotest.test_case "accepts correct impl" `Quick test_refine_accepts_correct;
          Alcotest.test_case "catches buggy impl" `Quick test_refine_catches_buggy;
          Alcotest.test_case "monitor raises" `Quick test_monitor_raises_on_divergence;
          Alcotest.test_case "monitor counts" `Quick test_monitor_counts_ops;
        ] );
      ( "axiom",
        [
          Alcotest.test_case "reference device clean" `Quick test_axiom_reference_clean;
          Alcotest.test_case "catches lying device" `Quick test_axiom_catches_lying_device;
          Alcotest.test_case "catches short read" `Quick test_axiom_catches_short_read;
          Alcotest.test_case "out of range" `Quick test_axiom_out_of_range;
        ] );
      ( "crash-safe-spec",
        Alcotest.test_case "fsync boundary" `Quick test_crash_safe_fsync_boundary
        :: Alcotest.test_case "allowed recoveries" `Quick test_allowed_recoveries
        :: Alcotest.test_case "no fsync" `Quick test_allowed_recoveries_no_fsync
        :: Alcotest.test_case "multiple fsyncs" `Quick test_allowed_recoveries_multiple_fsyncs
        :: Alcotest.test_case "failed ops in history" `Quick test_crash_safe_failed_op_prefixes
        :: qcheck [ prop_crash_safe_durable_allowed ] );
    ]
