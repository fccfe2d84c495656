(* Refinement traces recorded from the load harness.

   The harness announces every admitted operation to its sink as an
   abstract [Fs_spec] op with full VFS paths; [record] keeps the ops
   under one mount and rebases them to the mount root, yielding a trace
   a krefine machine (journalfs, cowfs, microreboot) can replay against
   the spec.  [Fsync] is mount-global in the VFS, so it is always
   kept. *)

module Fs = Kspec.Fs_spec

(* Sized so the /dur stream comfortably clears [target_ops]: every
   dwrite emits 3 ops (create, write, fsync), every dread 1, and the
   single class is all data traffic. *)
let spec_for ~target_ops =
  let per_tenant op_budget tenants = (op_budget + tenants - 1) / tenants in
  let tenants = 64 in
  {
    Spec.tenants;
    (* the dwrite-heavy mix averages ~1.5 emitted /dur ops per admitted
       op (a contended writer degrades to a single read) *)
    ops_per_tenant = per_tenant (max 1 (target_ops * 4 / 5)) tenants + 1;
    keyspace = 48;
    payload = 256;
    classes =
      [
        { Spec.cname = "rec"; weight = 1; mix = [ (Spec.Data_write, 3); (Spec.Data_read, 1) ] };
      ];
  }

(* Admission that never sheds: recording wants the full op stream. *)
let open_admission spec =
  let total = Spec.total_ops spec in
  {
    Admission.window_ns = 1_000_000_000;
    capacity = total + 1;
    per_tenant_cap = total + 1;
    hi_degrade = total + 1;
    hi_reject = total + 2;
    low_water = 0;
  }

let rebase prefix (op : Fs.op) =
  let strip p = Fs.strip_prefix prefix p in
  match op with
  | Fs.Create p -> Option.map (fun p -> Fs.Create p) (strip p)
  | Fs.Mkdir p -> Option.map (fun p -> Fs.Mkdir p) (strip p)
  | Fs.Write { file; off; data } ->
      Option.map (fun file -> Fs.Write { file; off; data }) (strip file)
  | Fs.Read { file; off; len } -> Option.map (fun file -> Fs.Read { file; off; len }) (strip file)
  | Fs.Truncate (p, n) -> Option.map (fun p -> Fs.Truncate (p, n)) (strip p)
  | Fs.Unlink p -> Option.map (fun p -> Fs.Unlink p) (strip p)
  | Fs.Rmdir p -> Option.map (fun p -> Fs.Rmdir p) (strip p)
  | Fs.Rename (a, b) -> (
      match (strip a, strip b) with
      | Some a, Some b -> Some (Fs.Rename (a, b))
      | _ -> None)
  | Fs.Readdir p -> Option.map (fun p -> Fs.Readdir p) (strip p)
  | Fs.Stat p -> Option.map (fun p -> Fs.Stat p) (strip p)
  | Fs.Fsync -> Some Fs.Fsync

let record ?(target_ops = 10_000) ~seed () =
  let spec = spec_for ~target_ops in
  let prefix = Fs.path_of_string "/dur" in
  let acc = ref [] in
  let sink op = acc := op :: !acc in
  let (_ : Harness.result) =
    Harness.run ~spec ~storm:Harness.No_storm ~admission:(open_admission spec) ~sink ~seed ()
  in
  List.rev !acc |> List.filter_map (rebase prefix)
