(* Tests for the core library: the safety ladder, interface descriptors,
   the registry ratchet, the migration engine, and the Figure-1 audit. *)

let check = Alcotest.check
let fail = Alcotest.fail

let level_t = Alcotest.testable Safeos_core.Level.pp ( = )

(* Level ---------------------------------------------------------------------- *)

let test_level_order () =
  let open Safeos_core.Level in
  check Alcotest.int "five rungs" 5 (List.length all);
  check Alcotest.bool "verified >= unsafe" true (Verified >= Unsafe);
  check Alcotest.bool "unsafe < type-safe" false (Unsafe >= Type_safe);
  List.iteri (fun i level -> check Alcotest.int "rank" i (rank level)) all;
  List.iter
    (fun level -> check (Alcotest.option level_t) "of_rank roundtrip" (Some level) (of_rank (rank level)))
    all;
  check (Alcotest.option level_t) "of_rank out of range" None (of_rank 9)

let test_level_prevention_mapping () =
  let open Safeos_core.Level in
  check (Alcotest.option level_t) "type confusion at step 2" (Some Type_safe)
    (prevented_at Type_confusion);
  check (Alcotest.option level_t) "uaf at step 3" (Some Ownership_safe)
    (prevented_at Use_after_free);
  check (Alcotest.option level_t) "race at step 3" (Some Ownership_safe) (prevented_at Data_race);
  check (Alcotest.option level_t) "semantic at step 4" (Some Verified) (prevented_at Semantic);
  check (Alcotest.option level_t) "numeric unclaimed" None (prevented_at Numeric);
  check (Alcotest.option level_t) "design unclaimed" None (prevented_at Design)

let test_level_prevents_monotone () =
  (* If a rung prevents a class, every higher rung does too. *)
  let open Safeos_core.Level in
  List.iter
    (fun bug ->
      List.iter
        (fun (a, b) ->
          if rank a <= rank b && prevents a bug then
            check Alcotest.bool
              (bug_class_to_string bug ^ " monotone")
              true (prevents b bug))
        (List.concat_map (fun a -> List.map (fun b -> (a, b)) all) all))
    all_bug_classes

(* Interface -------------------------------------------------------------------- *)

let test_interface_compatibility () =
  let open Safeos_core in
  let v1 =
    Interface.v ~name:"io" ~version:1 ~supports:Level.Type_safe
      [ Interface.op "read"; Interface.op "write" ]
  in
  let v2 =
    Interface.v ~name:"io" ~version:2 ~supports:Level.Type_safe
      [ Interface.op "read"; Interface.op "write"; Interface.op "flush" ]
  in
  check Alcotest.bool "newer hosts older" true (Interface.compatible ~provided:v2 ~required:v1);
  check Alcotest.bool "older cannot host newer" false
    (Interface.compatible ~provided:v1 ~required:v2);
  let other = Interface.v ~name:"net" ~version:1 ~supports:Level.Type_safe [] in
  check Alcotest.bool "different family" false (Interface.compatible ~provided:other ~required:v1)

let test_interface_admits () =
  let open Safeos_core in
  let no_contract =
    Interface.v ~name:"x" ~version:1 ~supports:Level.Verified [ Interface.op "f" ]
  in
  check Alcotest.bool "type-safe ok without contracts" true
    (Interface.admits no_contract Level.Type_safe);
  check Alcotest.bool "ownership needs contracts" false
    (Interface.admits no_contract Level.Ownership_safe);
  check Alcotest.bool "fs_interface hosts verified" true
    (Interface.admits Interface.fs_interface Level.Verified);
  let capped =
    Interface.v ~name:"y" ~version:1 ~supports:Level.Modular [ Interface.op "f" ]
  in
  check Alcotest.bool "supports caps the level" false (Interface.admits capped Level.Type_safe)

let test_fs_interface_shape () =
  let open Safeos_core in
  check Alcotest.int "eleven ops" 11 (List.length Interface.fs_interface.Interface.ops);
  check Alcotest.bool "write declared" true
    (Interface.find_op Interface.fs_interface "write" <> None);
  List.iter
    (fun (o : Interface.op_descr) ->
      check Alcotest.bool (o.Interface.op_name ^ " has sharing contract") true
        (o.Interface.sharing <> None))
    Interface.fs_interface.Interface.ops

(* Registry ---------------------------------------------------------------------- *)

let fresh_registry () =
  let r = Safeos_core.Registry.create () in
  ignore
    (Safeos_core.Registry.register r ~name:"memfs" ~kind:Safeos_core.Registry.File_system
       ~level:Safeos_core.Level.Modular ~iface:Safeos_core.Interface.fs_interface ~loc:100
       ~instance:(Kvfs.Iface.make (module Kfs.Memfs_unsafe.Modular) ())
       ());
  r

let test_registry_register_find () =
  let r = fresh_registry () in
  (match Safeos_core.Registry.find r "memfs" with
  | Some e ->
      check level_t "level" Safeos_core.Level.Modular e.Safeos_core.Registry.level;
      check Alcotest.int "loc" 100 e.Safeos_core.Registry.loc
  | None -> fail "not found");
  check Alcotest.bool "missing is None" true (Safeos_core.Registry.find r "nope" = None);
  check Alcotest.int "one entry" 1 (List.length (Safeos_core.Registry.all r))

let test_registry_duplicate_rejected () =
  let r = fresh_registry () in
  match
    Safeos_core.Registry.register r ~name:"memfs" ~kind:Safeos_core.Registry.File_system
      ~level:Safeos_core.Level.Modular ~iface:Safeos_core.Interface.fs_interface ()
  with
  | _ -> fail "expected Incompatible"
  | exception Safeos_core.Registry.Incompatible _ -> ()

let test_registry_ratchet () =
  let r = fresh_registry () in
  (* Upgrading is fine. *)
  (match
     Safeos_core.Registry.replace r ~name:"memfs" ~level:Safeos_core.Level.Type_safe
       ~iface:Safeos_core.Interface.fs_interface ()
   with
  | Ok e -> check level_t "upgraded" Safeos_core.Level.Type_safe e.Safeos_core.Registry.level
  | Error _ -> fail "upgrade refused");
  (* Downgrading is not. *)
  (match
     Safeos_core.Registry.replace r ~name:"memfs" ~level:Safeos_core.Level.Unsafe
       ~iface:Safeos_core.Interface.fs_interface ()
   with
  | Ok _ -> fail "downgrade accepted"
  | Error (`Would_lower_level _) -> ()
  | Error _ -> fail "wrong error");
  (* Incompatible interface is not. *)
  let alien = Safeos_core.Interface.v ~name:"alien" ~version:1 ~supports:Safeos_core.Level.Verified [] in
  match
    Safeos_core.Registry.replace r ~name:"memfs" ~level:Safeos_core.Level.Verified ~iface:alien ()
  with
  | Ok _ -> fail "alien interface accepted"
  | Error (`Incompatible_interface _) -> ()
  | Error _ -> fail "wrong error"

let test_registry_history () =
  let r = fresh_registry () in
  ignore
    (Safeos_core.Registry.replace r ~name:"memfs" ~level:Safeos_core.Level.Type_safe
       ~iface:Safeos_core.Interface.fs_interface ());
  ignore
    (Safeos_core.Registry.replace r ~name:"memfs" ~level:Safeos_core.Level.Modular
       ~iface:Safeos_core.Interface.fs_interface ());
  match Safeos_core.Registry.history r with
  | [ Safeos_core.Registry.Registered; Replaced; Rejected ] -> ()
  | _ -> fail "unexpected history shape"

let test_registry_loc_accounting () =
  let r = fresh_registry () in
  ignore
    (Safeos_core.Registry.register r ~name:"tcp" ~kind:Safeos_core.Registry.Network
       ~level:Safeos_core.Level.Type_safe
       ~iface:(Safeos_core.Interface.v ~name:"tcp" ~version:1 ~supports:Safeos_core.Level.Verified [])
       ~loc:50 ());
  check Alcotest.int "total" 150 (Safeos_core.Registry.total_loc r);
  check Alcotest.int "at type-safe" 50
    (Safeos_core.Registry.loc_at_or_above r Safeos_core.Level.Type_safe);
  check Alcotest.int "kinds" 1
    (List.length (Safeos_core.Registry.by_kind r Safeos_core.Registry.Network))

(* Roadmap ---------------------------------------------------------------------- *)

let test_validate_accepts_spec_equivalent () =
  let v = Safeos_core.Roadmap.validate ~ops:200 (fun () -> Kvfs.Iface.make (module Kfs.Memfs_typed) ()) in
  check Alcotest.int "all ops checked" 200 v.Safeos_core.Roadmap.checked;
  check Alcotest.bool "no divergence" true (v.Safeos_core.Roadmap.divergence = None)

(* A divergent candidate: reads lie. *)
module Lying_fs : Kvfs.Iface.FS_OPS = struct
  type fs = Kfs.Memfs_typed.fs

  let fs_name = "lying"
  let stage = 2
  let mkfs = Kfs.Memfs_typed.mkfs

  let apply fs op =
    match (op, Kfs.Memfs_typed.apply fs op) with
    | Kspec.Fs_spec.Read _, Ok (Kspec.Fs_spec.Data _) -> Ok (Kspec.Fs_spec.Data "lie")
    | _, r -> r

  let interpret = Kfs.Memfs_typed.interpret
end

let test_validate_rejects_divergent () =
  let v = Safeos_core.Roadmap.validate ~ops:300 (fun () -> Kvfs.Iface.make (module Lying_fs) ()) in
  check Alcotest.bool "divergence found" true (v.Safeos_core.Roadmap.divergence <> None)

let test_full_ladder_migration () =
  let r = fresh_registry () in
  let outcomes = Safeos_core.Roadmap.run_plan ~validation_ops:150 r (Safeos_core.Roadmap.memfs_ladder ()) in
  check Alcotest.int "three steps" 3 (List.length outcomes);
  List.iter
    (fun o ->
      check Alcotest.bool
        (Fmt.str "step to %a" Safeos_core.Level.pp o.Safeos_core.Roadmap.step.Safeos_core.Roadmap.to_level)
        true (Safeos_core.Roadmap.succeeded o))
    outcomes;
  match Safeos_core.Registry.find r "memfs" with
  | Some e -> check level_t "ends verified" Safeos_core.Level.Verified e.Safeos_core.Registry.level
  | None -> fail "memfs vanished"

let test_migration_rejects_non_upgrade () =
  let r = fresh_registry () in
  let step =
    {
      Safeos_core.Roadmap.component = "memfs";
      to_level = Safeos_core.Level.Modular (* sideways, not up *);
      iface = Safeos_core.Interface.fs_interface;
      candidate = (fun () -> Kvfs.Iface.make (module Kfs.Memfs_typed) ());
      loc = 1;
      description = "";
    }
  in
  match (Safeos_core.Roadmap.run_step r step).Safeos_core.Roadmap.result with
  | Error (Safeos_core.Roadmap.Not_an_upgrade _) -> ()
  | _ -> fail "expected Not_an_upgrade"

let test_migration_rejects_divergent_candidate () =
  let r = fresh_registry () in
  let step =
    {
      Safeos_core.Roadmap.component = "memfs";
      to_level = Safeos_core.Level.Type_safe;
      iface = Safeos_core.Interface.fs_interface;
      candidate = (fun () -> Kvfs.Iface.make (module Lying_fs) ());
      loc = 1;
      description = "";
    }
  in
  (match (Safeos_core.Roadmap.run_step r step).Safeos_core.Roadmap.result with
  | Error (Safeos_core.Roadmap.Validation_failed _) -> ()
  | _ -> fail "expected Validation_failed");
  (* And the registry is untouched. *)
  match Safeos_core.Registry.find r "memfs" with
  | Some e -> check level_t "unchanged" Safeos_core.Level.Modular e.Safeos_core.Registry.level
  | None -> fail "memfs vanished"

let test_migration_unknown_component () =
  let r = fresh_registry () in
  let step =
    {
      Safeos_core.Roadmap.component = "ghost";
      to_level = Safeos_core.Level.Type_safe;
      iface = Safeos_core.Interface.fs_interface;
      candidate = (fun () -> Kvfs.Iface.make (module Kfs.Memfs_typed) ());
      loc = 1;
      description = "";
    }
  in
  match (Safeos_core.Roadmap.run_step r step).Safeos_core.Roadmap.result with
  | Error Safeos_core.Roadmap.Unknown_component -> ()
  | _ -> fail "expected Unknown_component"

(* Patches (§4.5 rate of change) --------------------------------------------------- *)

let test_patch_same_level_lands () =
  let r = fresh_registry () in
  let outcome =
    Safeos_core.Roadmap.apply_patch ~validation_ops:100 r
      {
        Safeos_core.Roadmap.patch_component = "memfs";
        patch_description = "perf tweak, same level";
        replacement = (fun () -> Kvfs.Iface.make (module Kfs.Memfs_unsafe.Modular) ());
      }
  in
  check Alcotest.bool "patch landed" true (Result.is_ok outcome);
  match Safeos_core.Registry.find r "memfs" with
  | Some e ->
      check level_t "level unchanged" Safeos_core.Level.Modular e.Safeos_core.Registry.level;
      check Alcotest.string "description updated" "perf tweak, same level"
        e.Safeos_core.Registry.description
  | None -> fail "memfs vanished"

let test_patch_divergent_rejected () =
  let r = fresh_registry () in
  let outcome =
    Safeos_core.Roadmap.apply_patch ~validation_ops:300 r
      {
        Safeos_core.Roadmap.patch_component = "memfs";
        patch_description = "a regression";
        replacement = (fun () -> Kvfs.Iface.make (module Lying_fs) ());
      }
  in
  (match outcome with
  | Error (Safeos_core.Roadmap.Validation_failed _) -> ()
  | _ -> fail "regression landed");
  match Safeos_core.Registry.find r "memfs" with
  | Some e ->
      check Alcotest.bool "old description intact" true
        (e.Safeos_core.Registry.description <> "a regression")
  | None -> fail "memfs vanished"

let test_patch_stream_keeps_level () =
  (* §4.5: keep up with the rate of change — a stream of patches, each
     revalidated locally; the level never regresses. *)
  let r = fresh_registry () in
  ignore (Safeos_core.Roadmap.run_plan ~validation_ops:60 r (Safeos_core.Roadmap.memfs_ladder ()));
  for i = 1 to 5 do
    let outcome =
      Safeos_core.Roadmap.apply_patch ~validation_ops:60 r
        {
          Safeos_core.Roadmap.patch_component = "memfs";
          patch_description = Printf.sprintf "patch %d" i;
          replacement = (fun () -> Kvfs.Iface.make (module Kfs.Memfs_verified) ());
        }
    in
    check Alcotest.bool (Printf.sprintf "patch %d ok" i) true (Result.is_ok outcome)
  done;
  match Safeos_core.Registry.find r "memfs" with
  | Some e -> check level_t "still verified" Safeos_core.Level.Verified e.Safeos_core.Registry.level
  | None -> fail "memfs vanished"

let test_patch_unknown_component () =
  let r = fresh_registry () in
  let outcome =
    Safeos_core.Roadmap.apply_patch r
      {
        Safeos_core.Roadmap.patch_component = "ghost";
        patch_description = "";
        replacement = (fun () -> Kvfs.Iface.make (module Kfs.Memfs_typed) ());
      }
  in
  match outcome with
  | Error Safeos_core.Roadmap.Unknown_component -> ()
  | _ -> fail "expected Unknown_component"

(* Audit ------------------------------------------------------------------------- *)

let test_audit_literature_shape () =
  let open Safeos_core in
  check Alcotest.int "eight systems" 8 (List.length Audit.literature);
  (* The figure's diagonal: more safety, fewer lines. *)
  let loc_of level =
    List.fold_left
      (fun acc (r : Audit.row) -> if r.Audit.level = level then max acc r.Audit.loc else acc)
      0 Audit.literature
  in
  check Alcotest.bool "unsafe biggest" true (loc_of Level.Unsafe > loc_of Level.Type_safe);
  check Alcotest.bool "type > ownership" true (loc_of Level.Type_safe > loc_of Level.Ownership_safe);
  check Alcotest.bool "ownership > verified" true
    (loc_of Level.Ownership_safe > loc_of Level.Verified)

let test_audit_progress_moves () =
  let r = fresh_registry () in
  let before = Safeos_core.Audit.progress r in
  let loc_at level rows = List.assoc level rows.Safeos_core.Audit.at_or_above in
  check Alcotest.int "nothing verified yet" 0 (loc_at Safeos_core.Level.Verified before);
  ignore (Safeos_core.Roadmap.run_plan ~validation_ops:60 r (Safeos_core.Roadmap.memfs_ladder ()));
  let after = Safeos_core.Audit.progress r in
  check Alcotest.bool "verified code appeared" true (loc_at Safeos_core.Level.Verified after > 0)

let test_audit_loc_bands () =
  check Alcotest.string "tens of millions" "tens of millions" (Safeos_core.Audit.loc_band 30_000_000);
  check Alcotest.string "thousands" "thousands" (Safeos_core.Audit.loc_band 7_000);
  check Alcotest.string "hundreds of thousands" "hundreds of thousands"
    (Safeos_core.Audit.loc_band 300_000)

let () =
  Alcotest.run "safeos_core"
    [
      ( "level",
        [
          Alcotest.test_case "ordering" `Quick test_level_order;
          Alcotest.test_case "prevention mapping" `Quick test_level_prevention_mapping;
          Alcotest.test_case "prevention monotone" `Quick test_level_prevents_monotone;
        ] );
      ( "interface",
        [
          Alcotest.test_case "compatibility" `Quick test_interface_compatibility;
          Alcotest.test_case "admits" `Quick test_interface_admits;
          Alcotest.test_case "fs_interface shape" `Quick test_fs_interface_shape;
        ] );
      ( "registry",
        [
          Alcotest.test_case "register/find" `Quick test_registry_register_find;
          Alcotest.test_case "duplicate rejected" `Quick test_registry_duplicate_rejected;
          Alcotest.test_case "ratchet" `Quick test_registry_ratchet;
          Alcotest.test_case "history" `Quick test_registry_history;
          Alcotest.test_case "loc accounting" `Quick test_registry_loc_accounting;
        ] );
      ( "roadmap",
        [
          Alcotest.test_case "validate accepts correct" `Quick test_validate_accepts_spec_equivalent;
          Alcotest.test_case "validate rejects divergent" `Quick test_validate_rejects_divergent;
          Alcotest.test_case "full ladder" `Quick test_full_ladder_migration;
          Alcotest.test_case "rejects non-upgrade" `Quick test_migration_rejects_non_upgrade;
          Alcotest.test_case "rejects divergent candidate" `Quick
            test_migration_rejects_divergent_candidate;
          Alcotest.test_case "unknown component" `Quick test_migration_unknown_component;
        ] );
      ( "patches",
        [
          Alcotest.test_case "same-level patch lands" `Quick test_patch_same_level_lands;
          Alcotest.test_case "divergent patch rejected" `Quick test_patch_divergent_rejected;
          Alcotest.test_case "patch stream keeps level" `Quick test_patch_stream_keeps_level;
          Alcotest.test_case "unknown component" `Quick test_patch_unknown_component;
        ] );
      ( "audit",
        [
          Alcotest.test_case "literature shape" `Quick test_audit_literature_shape;
          Alcotest.test_case "progress moves" `Quick test_audit_progress_moves;
          Alcotest.test_case "loc bands" `Quick test_audit_loc_bands;
        ] );
    ]
