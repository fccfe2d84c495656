(* Fault injection across the roadmap: the paper's central claim made
   falsifiable.

   For every executable fault class we (1) switch the corresponding latent
   bug on in the step-0 module and run a trace that triggers it, observing
   the failure an unsafe kernel would suffer; and (2) report, for each
   higher rung, whether the bug is structurally impossible there
   ([Prevented]), caught by the rung's checker ([Detected]), or still
   exhibited.  The resulting matrix is EXP-PREVENT in DESIGN.md. *)

open Kspec

type fault =
  | F_use_after_free
  | F_double_free
  | F_memory_leak
  | F_wrong_cast
  | F_missing_errptr_check
  | F_data_race
  | F_off_by_one
  | F_transient_io
  | F_module_panic

let all_faults =
  [ F_use_after_free; F_double_free; F_memory_leak; F_wrong_cast; F_missing_errptr_check;
    F_data_race; F_off_by_one; F_transient_io; F_module_panic ]

let fault_to_string = function
  | F_use_after_free -> "use-after-free"
  | F_double_free -> "double-free"
  | F_memory_leak -> "memory-leak"
  | F_wrong_cast -> "wrong-cast"
  | F_missing_errptr_check -> "missing-errptr-check"
  | F_data_race -> "data-race"
  | F_off_by_one -> "off-by-one"
  | F_transient_io -> "transient-io"
  | F_module_panic -> "module-panic"

let bug_class_of_fault = function
  | F_use_after_free -> Safeos_core.Level.Use_after_free
  | F_double_free -> Safeos_core.Level.Double_free
  | F_memory_leak -> Safeos_core.Level.Memory_leak
  | F_wrong_cast -> Safeos_core.Level.Type_confusion
  | F_missing_errptr_check -> Safeos_core.Level.Null_dereference
  | F_data_race -> Safeos_core.Level.Data_race
  | F_off_by_one -> Safeos_core.Level.Semantic
  | F_transient_io -> Safeos_core.Level.Crash_inconsistency
  | F_module_panic -> Safeos_core.Level.Semantic (* CWE-248: uncaught exception *)

type detection =
  | Prevented of string  (** structurally impossible at this rung *)
  | Detected of string  (** the rung's checker caught it *)
  | Exhibited of string  (** the bug struck, as it would in production *)
  | Not_triggered

let detection_to_string = function
  | Prevented why -> "prevented: " ^ why
  | Detected how -> "detected: " ^ how
  | Exhibited effect -> "EXHIBITED: " ^ effect
  | Not_triggered -> "not triggered"

let is_stopped = function Prevented _ | Detected _ -> true | Exhibited _ | Not_triggered -> false

(* Transient I/O faults: the robustness story rather than a memory-safety
   one.  Unprotected, the FS sits directly on the flaky device: the first
   injected EIO surfaces, the op fails, and the FS gives up (remount-ro)
   over what was only a hiccup.  Protected, a [Kblock.Resilient] layer
   sits in between: bounded retries absorb every transient fault and the
   workload completes untouched — the retry layer plays the role of the
   rung's checker, so the verdict is [Detected]. *)
let trigger_transient_io ~protected () =
  let geo = Kfs.Journalfs.default_geometry in
  let dev = Kblock.Blockdev.create ~nblocks:geo.nblocks ~block_size:geo.block_size in
  let fp = Ksim.Failpoint.create ~seed:7 () in
  let flaky = Kblock.Flakydev.create ~fp (Kblock.Blockdev.io dev) in
  let io =
    if protected then
      Kblock.Resilient.io (Kblock.Resilient.create ~max_attempts:4 (Kblock.Flakydev.io flaky))
    else Kblock.Flakydev.io flaky
  in
  let fs = Kfs.Journalfs.mkfs_on ~io Kfs.Journalfs.Journaled dev in
  (* Every third media write draws an EIO, four times in total: fully
     deterministic (probability 1), and spaced so a retry — which lands
     on a hit count that is not a multiple of three — always recovers. *)
  Ksim.Failpoint.configure fp "flaky.write-eio" ~enabled:true ~interval:3 ~times:4 ();
  let p = Fs_spec.path_of_string in
  let ops =
    [
      Fs_spec.Create (p "/a");
      Fs_spec.Write { file = p "/a"; off = 0; data = "hello" };
      Fs_spec.Create (p "/b");
      Fs_spec.Write { file = p "/b"; off = 0; data = "world" };
      Fs_spec.Fsync;
    ]
  in
  let failed = List.exists (fun op -> Result.is_error (Kfs.Journalfs.apply fs op)) ops in
  let injected = Kblock.Flakydev.injected flaky in
  if failed || Kfs.Journalfs.is_readonly fs then
    Exhibited
      (Printf.sprintf "transient EIO surfaced: op failed, FS remounted read-only (%d faults)"
         injected)
  else if injected = 0 then Not_triggered
  else Detected (Printf.sprintf "resilient retries absorbed %d transient faults" injected)

(* Module panics: a panic raised through a module entry point.  In the
   monolith every module shares the kernel's fate — the panic escapes the
   VFS dispatch and oopses the whole kernel (here: an uncaught
   exception).  Behind a modular interface the mount can carry a
   [Ksim.Supervisor] oops firewall instead: the panic is contained to an
   errno, the file system microreboots, and the workload continues on
   fresh handles — so the verdict at modular-and-above rungs is
   [Detected], the supervisor playing the rung's checker. *)
let trigger_module_panic ~supervised () =
  let fp = Ksim.Failpoint.create ~seed:13 () in
  Ksim.Failpoint.configure fp "module.panic" ~enabled:true ~times:1 ();
  let make () = Kvfs.Iface.panicky ~fp (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) in
  let vfs = Kvfs.Vfs.create () in
  (match
     if supervised then Kvfs.Vfs.mount vfs ~at:[] ~remake:make (make ())
     else Kvfs.Vfs.mount vfs ~at:[] (make ())
   with
  | Ok () -> ()
  | Error e -> failwith ("trigger_module_panic: mount: " ^ Ksim.Errno.to_string e));
  let p = Fs_spec.path_of_string in
  let ops =
    [
      Fs_spec.Create (p "/a");
      Fs_spec.Create (p "/b");
      Fs_spec.Create (p "/c");
      Fs_spec.Write { file = p "/c"; off = 0; data = "survived" };
    ]
  in
  match List.map (fun op -> Kvfs.Vfs.apply vfs op) ops with
  | exception Ksim.Supervisor.Module_panic site ->
      Exhibited (Printf.sprintf "uncontained panic at %s oopsed the kernel" site)
  | results -> (
      let failures = List.length (List.filter Result.is_error results) in
      match Kvfs.Vfs.supervisor_at vfs (p "/") with
      | Some sup
        when Ksim.Supervisor.state sup = Ksim.Supervisor.Healthy
             && Ksim.Supervisor.epoch sup > 0 ->
          Detected
            (Printf.sprintf
               "supervisor contained the panic and microrebooted (epoch %d, %d ops failed \
                during quiesce)"
               (Ksim.Supervisor.epoch sup) failures)
      | _ -> Not_triggered)

(* The trigger trace: create, write, read, unlink, then read again (the
   dangling access), with enough churn to surface leaks and races. *)
let trigger_memfs_unsafe fault =
  let faults = Kfs.Memfs_unsafe.no_faults () in
  (match fault with
  | F_use_after_free -> faults.use_after_free <- true
  | F_double_free -> faults.double_free <- true
  | F_memory_leak -> faults.memory_leak <- true
  | F_wrong_cast -> faults.wrong_cast <- true
  | F_missing_errptr_check -> faults.missing_errptr_check <- true
  | F_data_race -> faults.skip_i_lock <- true
  | F_off_by_one -> faults.off_by_one <- true
  | F_transient_io | F_module_panic -> ());
  let fs = Kfs.Memfs_unsafe.mkfs_with_faults faults in
  let module L = Kfs.Memfs_unsafe.Legacy in
  let run () =
    ignore (L.create fs "/a" ~kind:Kvfs.Vtypes.Regular);
    (match L.write_begin fs "/a" ~off:0 with
    | Ksim.Dyn.Errptr.Ptr private_data -> ignore (L.write_end fs private_data ~data:"hello world")
    | Ksim.Dyn.Errptr.Err _ -> ());
    let read_back = L.read fs "/a" ~off:0 ~len:64 in
    (* The semantic bug: silent short read. *)
    (match read_back with
    | Ok data when fault = F_off_by_one && not (String.equal data "hello world") ->
        raise Exit
    | _ -> ());
    (* Error-path probe: read a file that does not exist (the errptr
       check the C code forgot). *)
    ignore (L.read fs "/missing" ~off:0 ~len:4);
    ignore (L.unlink fs "/a");
    (* The dangling access after unlink. *)
    ignore (L.read fs "/a" ~off:0 ~len:4);
    ignore (L.create fs "/b" ~kind:Kvfs.Vtypes.Regular);
    ignore (L.unlink fs "/b")
  in
  match run () with
  | () ->
      (* No exception: look for silent damage. *)
      let heap = Kfs.Memfs_unsafe.heap fs in
      if Ksim.Kmem.leaks heap <> [] then
        Exhibited
          (Printf.sprintf "%d objects leaked" (List.length (Ksim.Kmem.leaks heap)))
      else Not_triggered
  | exception Exit -> Exhibited "silent wrong read result (no crash, corrupt data)"
  | exception Ksim.Kmem.Use_after_free _ -> Exhibited "kernel oops: use-after-free read"
  | exception Ksim.Kmem.Double_free _ -> Exhibited "kernel oops: double free"
  | exception Ksim.Dyn.Type_confusion _ -> Exhibited "kernel oops: type confusion"
  | exception Ksim.Dyn.Null_dereference -> Exhibited "kernel oops: ERR_PTR dereferenced"

let trigger_unsafe = function
  | F_transient_io -> trigger_transient_io ~protected:false ()
  | F_module_panic -> trigger_module_panic ~supervised:false ()
  | fault -> trigger_memfs_unsafe fault

(* Data races need the unlocked-access counter rather than an exception:
   the i_size cell records accesses made without i_lock. *)
let trigger_race () =
  let faults = Kfs.Memfs_unsafe.no_faults () in
  faults.skip_i_lock <- true;
  let fs = Kfs.Memfs_unsafe.mkfs_with_faults faults in
  let module L = Kfs.Memfs_unsafe.Legacy in
  ignore (L.create fs "/r" ~kind:Kvfs.Vtypes.Regular);
  (match L.write_begin fs "/r" ~off:0 with
  | Ksim.Dyn.Errptr.Ptr private_data -> ignore (L.write_end fs private_data ~data:"data")
  | Ksim.Dyn.Errptr.Err _ -> ());
  ignore (L.truncate fs "/r" 2);
  match Kfs.Memfs_unsafe.races fs with
  | 0 -> Not_triggered
  | n -> Exhibited (Printf.sprintf "%d unlocked i_size accesses" n)

(* The step-4 story for semantic bugs: a buggy implementation under the
   refinement monitor is caught on the first diverging operation. *)
module Buggy_impl = struct
  include Kfs.Memfs_verified.Impl

  let name = "memfs_buggy"

  let step t op =
    match (op, step t op) with
    | Fs_spec.Read _, (t, Ok (Fs_spec.Data data)) when String.length data > 0 ->
        (* The off-by-one, now inside a "verified" module. *)
        (t, Ok (Fs_spec.Data (String.sub data 0 (String.length data - 1))))
    | _, r -> r

  let apply t op = snd (step t op)
end

module Buggy_checked = Krefine.Monitor (Buggy_impl)

let trigger_verified_semantic () =
  let t = Buggy_checked.create () in
  let p = Fs_spec.path_of_string in
  let run () =
    ignore (Buggy_checked.apply t (Fs_spec.Create (p "/a")));
    ignore (Buggy_checked.apply t (Fs_spec.Write { file = p "/a"; off = 0; data = "xyz" }));
    ignore (Buggy_checked.apply t (Fs_spec.Read { file = p "/a"; off = 0; len = 3 }))
  in
  match run () with
  | () -> Not_triggered
  | exception Krefine.Refinement_failure d ->
      Detected
        (Fmt.str "refinement monitor: step %d (%a): %a" d.step_index Fs_spec.pp_op d.op
           Krefine.pp_mismatch d.mismatch)

(* Semantic bug below step 4: same buggy implementation, no monitor — the
   wrong result sails through. *)
let trigger_unverified_semantic () =
  let t = Buggy_impl.init () in
  let p = Fs_spec.path_of_string in
  ignore (Buggy_impl.apply t (Fs_spec.Create (p "/a")));
  ignore (Buggy_impl.apply t (Fs_spec.Write { file = p "/a"; off = 0; data = "xyz" }));
  match Buggy_impl.apply t (Fs_spec.Read { file = p "/a"; off = 0; len = 3 }) with
  | Ok (Fs_spec.Data "xyz") -> Not_triggered
  | Ok _ -> Exhibited "silent wrong read result (no crash, corrupt data)"
  | Error _ -> Exhibited "spurious error"

(* Ownership-level detection demo: a client that misbehaves against the
   checker is caught rather than corrupting memory. *)
let trigger_owned_violation () =
  let ck = Ownership.Checker.create ~strict:true () in
  let cap = Ownership.Checker.alloc ck ~holder:"client" ~size:16 in
  Ownership.Checker.free ck cap;
  match Ownership.Checker.read ck cap ~off:0 ~len:4 with
  | _ -> Not_triggered
  | exception Ownership.Checker.Violation v ->
      Detected (Fmt.str "ownership checker: %a" Ownership.Checker.pp_violation v)

let stages = Safeos_core.Level.[ Unsafe; Type_safe; Ownership_safe; Verified ]

(* The matrix cell: what happens to [fault] at [stage]. *)
let at_stage stage fault =
  let open Safeos_core.Level in
  match fault with
  | F_transient_io ->
      (* The protection here is the resilient I/O stack plus journal
         discipline — the crash-consistency machinery the roadmap reaches
         at the Verified rung.  Below it the FS sits bare on the flaky
         device and the hiccup becomes a failure. *)
      if Stdlib.( >= ) (rank stage) (rank Verified) then trigger_transient_io ~protected:true ()
      else trigger_transient_io ~protected:false ()
  | F_module_panic ->
      (* Containment needs only the modular interface: once the module is
         called through [Iface], a supervisor can firewall it.  Every
         rung from Modular up therefore detects; the monolith oopses. *)
      if Stdlib.( >= ) (rank stage) (rank Modular) then trigger_module_panic ~supervised:true ()
      else trigger_module_panic ~supervised:false ()
  | _ -> (
  let bug = bug_class_of_fault fault in
  match prevented_at bug with
  | Some required when Stdlib.( >= ) (rank stage) (rank required) -> (
      (* At or above the preventing rung.  Memory bugs at the ownership
         rung are *detected* dynamically in our simulator (static
         impossibility is what Rust would give); type bugs at the type
         rung are simply inexpressible. *)
      match (stage, bug) with
      | Ownership_safe, (Use_after_free | Double_free | Buffer_overflow | Memory_leak) ->
          trigger_owned_violation ()
          |> fun d -> (match d with Not_triggered -> Prevented "checked capabilities" | d -> d)
      | Verified, (Semantic | Crash_inconsistency) -> trigger_verified_semantic ()
      | _, (Type_confusion | Null_dereference) ->
          Prevented "no void pointers or error-pointer casts to misuse"
      | _, Data_race -> Prevented "ownership forbids unsynchronized shared mutation"
      | _, _ -> Prevented "structurally impossible at this rung")
  | _ -> (
      (* Below the preventing rung: the bug strikes. *)
      match fault with
      | F_data_race -> if stage = Unsafe then trigger_race () else Exhibited "unlocked shared access"
      | F_off_by_one ->
          if stage = Unsafe then trigger_unsafe fault else trigger_unverified_semantic ()
      | _ ->
          if stage = Unsafe then trigger_unsafe fault
          else Exhibited "latent (unsafe idiom still expressible)"))

let matrix () =
  List.map (fun fault -> (fault, List.map (fun s -> (s, at_stage s fault)) stages)) all_faults

let render_matrix ppf m =
  Fmt.pf ppf "%-22s" "fault \\ stage";
  List.iter (fun s -> Fmt.pf ppf " %-14s" (Safeos_core.Level.to_string s)) stages;
  Fmt.pf ppf "@.%s@." (String.make 84 '-');
  List.iter
    (fun (fault, cells) ->
      Fmt.pf ppf "%-22s" (fault_to_string fault);
      List.iter
        (fun (_, d) ->
          let mark =
            match d with
            | Exhibited _ -> "BUG"
            | Detected _ -> "caught"
            | Prevented _ -> "prevented"
            | Not_triggered -> "-"
          in
          Fmt.pf ppf " %-14s" mark)
        cells;
      Fmt.pf ppf "@.")
    m
