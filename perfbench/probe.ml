(* Probes: wrappers that time calls into one layer from outside it.

   Each probe takes a layer's public interface (an [Io.t], a mounted
   file-system instance, a krefine [MACHINE]) and returns the same
   interface, forwarding every call unchanged and adding the wall time
   spent inside the call to a [span].  Nothing else changes: the probed
   stack issues the same calls in the same order, so results, device
   bytes and coverage fingerprints are those of the bare stack (the
   tests check this).  A layer's self time is its span minus the span
   of the probe below it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  mutable calls : int;
  mutable ns : int;  (** wall ns spent inside calls through this probe *)
  mutable bytes_written : int;
  mutable errors : int;  (** calls that returned [Error _] *)
}

let span () = { calls = 0; ns = 0; bytes_written = 0; errors = 0 }

let stop s t0 =
  s.ns <- s.ns + (now_ns () - t0);
  s.calls <- s.calls + 1

let time s f =
  let t0 = now_ns () in
  match f () with
  | r ->
      stop s t0;
      r
  | exception e ->
      stop s t0;
      raise e

let time_result s f =
  let r = time s f in
  (match r with Error _ -> s.errors <- s.errors + 1 | Ok _ -> ());
  r

(* Block layer ------------------------------------------------------------- *)

let io s (below : Kblock.Io.t) : Kblock.Io.t =
  let write_via w blkno data =
    s.bytes_written <- s.bytes_written + Bytes.length data;
    time_result s (fun () -> w blkno data)
  in
  {
    below with
    Kblock.Io.read = (fun blkno -> time_result s (fun () -> below.Kblock.Io.read blkno));
    write = write_via below.Kblock.Io.write;
    flush = (fun () -> time_result s below.Kblock.Io.flush);
    write_fua = Option.map write_via below.Kblock.Io.write_fua;
  }

(* File systems under the VFS --------------------------------------------- *)

let fs_instance s (Kvfs.Iface.Instance ((module F), fs)) =
  let module T = struct
    include F

    let apply fs op = time_result s (fun () -> F.apply fs op)
  end in
  Kvfs.Iface.instance (module T) fs

(* krefine machines --------------------------------------------------------- *)

type machine_spans = {
  init : span;
  step : span;
  interp : span;
  inv : span;
  crash_images : span;
}

let machine_spans () =
  { init = span (); step = span (); interp = span (); inv = span (); crash_images = span () }

let machine m (Kharness.Packed (module M)) =
  let module T = struct
    type vars = M.vars

    let name = M.name
    let init () = time m.init M.init
    let step v op = time m.step (fun () -> M.step v op)
    let interp v = time m.interp (fun () -> M.interp v)
    let inv v = time m.inv (fun () -> M.inv v)
    let crash_images v ~limit = time m.crash_images (fun () -> M.crash_images v ~limit)
  end in
  Kharness.Packed (module T)

(* Summaries ------------------------------------------------------------------ *)

let median = function
  | [] -> 0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) + a.(n / 2)) / 2
