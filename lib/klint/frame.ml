(* The declared framekernel boundary — which files *are* the privileged
   frame, which files are grandfathered unsafe exhibits, and which frame
   symbols services may reach.

   ktcb (R12-R14) is parameterized entirely by this file: the frame is
   [lib/ksim], its blessed surface is the module list below (everything
   ksim exports *except* the raw machinery: [Dyn], [Kmem], bare
   [Klock.acquire]/[release], [Klock.Guarded.unsafe_*]), and the
   exhibits are the modules that exist to contain bugs.  A fixture tree
   can declare its own frame simply by putting files under [lib/ksim]. *)

(* Directories whose files are the privileged frame: unsafe primitives
   are legal here, and every line counts toward the unsafe TCB. *)
let frame_dirs = [ "lib/ksim" ]

let in_frame rel = List.exists (fun d -> Subsystem.under d rel) frame_dirs

(* Intentionally-unsafe specimens: the step-0 exhibits, the bug corpus,
   and the CVE dataset.  Their R12/R13 findings are the tcb.baseline;
   calling *into* an exhibit through its interface is not laundering
   (the boundary is declared, and the registry already prices the
   exhibit's own claim), so taint does not propagate out of them. *)
let exhibits =
  [ "lib/kfs/memfs_unsafe.ml"; "lib/knet/amp.ml"; "lib/kbugs"; "lib/kcve" ]

let is_exhibit rel = List.exists (fun d -> Subsystem.under d rel) exhibits

(* The unsafe primitives R12 polices, classified from the qualified path
   a use site actually writes ([Ksim.Dyn.project], [Bytes.unsafe_get],
   [Klock.acquire], ...).  Purely syntactic, like every klint rule. *)
type prim =
  | Dyn_use  (** any value reached through a [Dyn] module component *)
  | Kmem_use  (** raw allocator access through a [Kmem] component *)
  | Unsafe_bytes  (** [Bytes.unsafe_*] *)
  | Bare_lock  (** [Klock.acquire]/[release]/[try_acquire], [Guarded.unsafe_*] *)

let prim_to_string = function
  | Dyn_use -> "Dyn"
  | Kmem_use -> "Kmem"
  | Unsafe_bytes -> "Bytes.unsafe_*"
  | Bare_lock -> "bare Klock"

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let bare_lock_fns = [ "acquire"; "release"; "try_acquire" ]

(* [classify_path ["Ksim"; "Dyn"; "project"]] -> [Some Dyn_use].  The
   module components are matched anywhere in the path so nested access
   ([Ksim.Dyn.Errptr.of_ptr]) still classifies. *)
let classify_path path =
  match List.rev path with
  | [] -> None
  | last :: rev_mods ->
      if List.mem "Dyn" rev_mods then Some Dyn_use
      else if List.mem "Kmem" rev_mods then Some Kmem_use
      else if
        (match rev_mods with "Bytes" :: _ -> true | _ -> false)
        && starts_with ~prefix:"unsafe_" last
      then Some Unsafe_bytes
      else if
        (match rev_mods with "Klock" :: _ -> true | _ -> false)
        && List.mem last bare_lock_fns
      then Some Bare_lock
      else if
        (match rev_mods with "Guarded" :: _ -> true | _ -> false)
        && starts_with ~prefix:"unsafe_" last
      then Some Bare_lock
      else None

(* The blessed frame surface, for R13: a service may resolve a call into
   these frame modules (Frame wrappers, errnos, the simulator substrate)
   but not into the raw machinery, and not into frame modules that are
   not on the list at all — an internal helper module added to the frame
   is unexported until blessed here. *)
let blessed_modules =
  [
    "Frame"; "Errno"; "Export"; "Failpoint"; "Hist"; "Klock"; "Kstats";
    "Kthread"; "Ktrace"; "Lockdep"; "Rng"; "Storm"; "Supervisor";
  ]

let frame_module_of_file rel =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

(* Is this resolved frame function part of the exported, audited API?
   [Klock] is blessed minus its dangerous corners — the same functions
   [classify_path] prices as [Bare_lock]. *)
let blessed_symbol (f : Callgraph.func) =
  let m = frame_module_of_file f.Callgraph.file in
  List.mem m blessed_modules
  &&
  match List.rev f.Callgraph.qualname with
  | [] -> false
  | last :: rev_mods ->
      not
        (String.equal m "Klock"
        && (List.mem last bare_lock_fns
           || (List.mem "Guarded" rev_mods && starts_with ~prefix:"unsafe_" last)))

(* The one .mli whose val count is the frame-surface metric. *)
let surface_mli = "lib/ksim/frame.mli"
