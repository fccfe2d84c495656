(* Deterministic workload generation.

   Traces are generated against a live spec state so that most operations
   are valid (with a configurable sprinkling of invalid ones, since error
   paths are where kernel bugs hide).  The same seed always yields the
   same trace, so benches, differential tests, and crash exploration all
   see identical inputs. *)

open Kspec

type profile =
  | Metadata_heavy  (** create/mkdir/rename/unlink churn, small writes *)
  | Data_heavy  (** few files, large sequential writes and reads *)
  | Mixed  (** an even blend, the default *)
  | Read_mostly  (** a populated tree, then ~90% reads *)

let profile_to_string = function
  | Metadata_heavy -> "metadata-heavy"
  | Data_heavy -> "data-heavy"
  | Mixed -> "mixed"
  | Read_mostly -> "read-mostly"

let all_profiles = [ Metadata_heavy; Data_heavy; Mixed; Read_mostly ]

let names = [| "alpha"; "beta"; "gamma"; "delta"; "data"; "log"; "tmp"; "cfg"; "idx"; "blob" |]

let gen_name rng = names.(Ksim.Rng.int rng (Array.length names))

(* Paths bound in the current spec state, split by kind. *)
let live_paths state =
  Fs_spec.Pathmap.fold
    (fun path node (files, dirs) ->
      match node with
      | Fs_spec.File _ -> (path :: files, dirs)
      | Fs_spec.Dir -> (files, path :: dirs))
    state ([], [])

let pick_dir rng dirs = if dirs = [] || Ksim.Rng.int rng 4 = 0 then [] else Ksim.Rng.pick rng dirs

let random_payload rng max_len =
  let len = 1 + Ksim.Rng.int rng (max max_len 1) in
  String.init len (fun _ -> Char.chr (Char.code 'a' + Ksim.Rng.int rng 26))

let gen_op rng state ~payload ~weights =
  let files, dirs = live_paths state in
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weights in
  let rec pick n = function
    | [] -> assert false
    | (w, f) :: rest -> if n < w then f () else pick (n - w) rest
  in
  let new_path () = pick_dir rng dirs @ [ gen_name rng ] in
  (* Until files exist, file-targeting ops would all fail; creating first
     keeps traces mostly valid while still exercising error paths once the
     namespace is populated (collisions, unlinked targets, ...). *)
  let no_files = files = [] in
  let some_file () = match files with [] -> new_path () | fs -> Ksim.Rng.pick rng fs in
  let some_dir () = match dirs with [] -> new_path () | ds -> Ksim.Rng.pick rng ds in
  pick (Ksim.Rng.int rng total)
    (List.map
       (fun (w, kind) ->
         ( w,
           fun () ->
             let kind =
               match kind with
               | (`Write | `Read | `Truncate | `Unlink | `Rename | `Stat) when no_files ->
                   `Create
               | k -> k
             in
             match kind with
             | `Create -> Fs_spec.Create (new_path ())
             | `Mkdir -> Fs_spec.Mkdir (new_path ())
             | `Write ->
                 Fs_spec.Write
                   {
                     file = some_file ();
                     off = Ksim.Rng.int rng (payload / 2 + 1);
                     data = random_payload rng payload;
                   }
             | `Read ->
                 Fs_spec.Read
                   { file = some_file (); off = Ksim.Rng.int rng (payload + 1); len = payload }
             | `Truncate -> Fs_spec.Truncate (some_file (), Ksim.Rng.int rng payload)
             | `Unlink -> Fs_spec.Unlink (some_file ())
             | `Rmdir -> Fs_spec.Rmdir (some_dir ())
             | `Rename -> Fs_spec.Rename (some_file (), new_path ())
             | `Rename_dir -> Fs_spec.Rename (some_dir (), new_path ())
             | `Readdir -> Fs_spec.Readdir (some_dir ())
             | `Stat -> Fs_spec.Stat (some_file ())
             | `Fsync -> Fs_spec.Fsync ))
       weights)

let weights_of_profile = function
  | Metadata_heavy ->
      [ (20, `Create); (12, `Mkdir); (6, `Write); (6, `Read); (10, `Unlink); (6, `Rmdir);
        (12, `Rename); (4, `Rename_dir); (10, `Readdir); (10, `Stat); (4, `Fsync) ]
  | Data_heavy ->
      [ (4, `Create); (1, `Mkdir); (40, `Write); (30, `Read); (4, `Truncate); (2, `Unlink);
        (2, `Rename); (4, `Readdir); (8, `Stat); (5, `Fsync) ]
  | Mixed ->
      [ (12, `Create); (6, `Mkdir); (18, `Write); (18, `Read); (5, `Truncate); (8, `Unlink);
        (3, `Rmdir); (6, `Rename); (2, `Rename_dir); (8, `Readdir); (10, `Stat); (4, `Fsync) ]
  | Read_mostly ->
      [ (2, `Create); (1, `Mkdir); (5, `Write); (60, `Read); (2, `Unlink); (10, `Readdir);
        (18, `Stat); (2, `Fsync) ]

let payload_of_profile = function
  | Metadata_heavy -> 16
  | Data_heavy -> 2048
  | Mixed -> 128
  | Read_mostly -> 256

let generate ?(seed = 42) profile ~ops =
  let rng = Ksim.Rng.of_int seed in
  let payload = payload_of_profile profile in
  let weights = weights_of_profile profile in
  let rec go state n acc =
    if n = 0 then List.rev acc
    else
      let op = gen_op rng state ~payload ~weights in
      let state', _ = Fs_spec.step state op in
      go state' (n - 1) (op :: acc)
  in
  go Fs_spec.empty ops []

(* A small fixed smoke trace used by examples and quick tests. *)
let smoke : Fs_spec.op list =
  let p = Fs_spec.path_of_string in
  [
    Mkdir (p "/etc");
    Mkdir (p "/var");
    Mkdir (p "/var/log");
    Create (p "/etc/hostname");
    Write { file = p "/etc/hostname"; off = 0; data = "safeos\n" };
    Create (p "/var/log/boot.log");
    Write { file = p "/var/log/boot.log"; off = 0; data = "booted kernel sim\n" };
    Fsync;
    Read { file = p "/etc/hostname"; off = 0; len = 64 };
    Rename (p "/var/log/boot.log", p "/var/log/boot.0");
    Readdir (p "/var/log");
    Stat (p "/etc/hostname");
    Truncate (p "/etc/hostname", 6);
    Unlink (p "/var/log/boot.0");
    Fsync;
  ]

(* Replay a trace against an instance, returning per-result counts. *)
let replay instance ops =
  List.fold_left
    (fun (ok, errs) op ->
      match Kvfs.Iface.instance_apply instance op with
      | Ok _ -> (ok + 1, errs)
      | Error _ -> (ok, errs + 1))
    (0, 0) ops
