(* The framekernel boundary — see frame.mli.

   Every wrapper here is deliberately one line over the raw primitive:
   the point is not abstraction but *audit surface*.  The unsafe
   remainder of the kernel is whatever this file plus the rest of
   lib/ksim add up to, and klint-report.json's tcb object prices exactly
   that; services above the frame are expected to carry zero direct uses
   of Dyn/Kmem/Bytes.unsafe_*/bare Klock. *)

module Priv = struct
  type t = Dyn.t
  type 'a slot = 'a Dyn.Key.t

  let slot ~name = Dyn.Key.create ~name
  let wrap = Dyn.inject
  let unwrap = Dyn.project
end

module Handle = struct
  type t = Dyn.Errptr.t

  let result = Dyn.Errptr.to_result
end

module Buf = struct
  (* The @consumes contract lives on the .mli val; kown merges it in and
     flags any caller that touches the buffer after freezing it. *)
  let freeze b = Bytes.unsafe_to_string b
end
