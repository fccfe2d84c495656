(* The incremental migration engine: §3 made executable.

   One component is replaced at a time, and each replacement must (a) be
   a safety upgrade, (b) speak a compatible interface, and (c) pass
   functional validation — a generated trace whose every operation is
   checked against the abstract specification, results and interpreted
   states both.  Only then does the registry swap implementations.  This
   is "incremental benefit for incremental work": after each step the
   kernel runs with one more component at a higher rung. *)

type validation = {
  checked : int;
  divergence : Kspec.Krefine.divergence option;
}

let pp_divergence ppf (d : Kspec.Krefine.divergence) =
  Fmt.pf ppf "op %d (%a): %a" d.step_index Kspec.Fs_spec.pp_op d.op Kspec.Krefine.pp_mismatch
    d.mismatch

(* Validate a candidate against the specification on a deterministic
   generated trace: Krefine's lockstep check — result equality on every
   op, state equality through the interpretation function after every
   op — stopping at the first divergence. *)
let validate ?(ops = 400) candidate =
  let trace = Kfs.Workload.generate ~seed:7 Kfs.Workload.Mixed ~ops in
  let module M = struct
    type vars = Kvfs.Iface.instance

    let name = "candidate"
    let init = candidate
    let step v op = (v, Kvfs.Iface.instance_apply v op)
    let interp = Kvfs.Iface.instance_interpret
    let inv _ = true
    let crash_images _ ~limit:_ = []
  end in
  let config =
    { Kspec.Krefine.default_config with crash_every = 0; shrink = false; max_divergences = 1 }
  in
  let cov = Kspec.Krefine.run ~config (module M) trace in
  match cov.divergences with
  | [] -> { checked = cov.ops; divergence = None }
  | d :: _ -> { checked = d.step_index; divergence = Some d }

type step = {
  component : string;
  to_level : Level.t;
  iface : Interface.t;
  candidate : unit -> Kvfs.Iface.instance;
  loc : int;
  description : string;
}

type failure =
  | Not_an_upgrade of { current : Level.t; proposed : Level.t }
  | Interface_rejected of string
  | Validation_failed of Kspec.Krefine.divergence
  | Unknown_component

type outcome = {
  step : step;
  result : (Registry.entry * validation, failure) Stdlib.result;
}

let pp_failure ppf = function
  | Not_an_upgrade { current; proposed } ->
      Fmt.pf ppf "not an upgrade: %a -> %a" Level.pp current Level.pp proposed
  | Interface_rejected why -> Fmt.pf ppf "interface rejected: %s" why
  | Validation_failed d -> Fmt.pf ppf "validation failed: %a" pp_divergence d
  | Unknown_component -> Fmt.string ppf "unknown component"

let run_step ?(validation_ops = 400) registry step =
  match Registry.find registry step.component with
  | None -> { step; result = Error Unknown_component }
  | Some current ->
      if Level.rank step.to_level <= Level.rank current.Registry.level then
        {
          step;
          result =
            Error (Not_an_upgrade { current = current.Registry.level; proposed = step.to_level });
        }
      else begin
        let validation = validate ~ops:validation_ops step.candidate in
        match validation.divergence with
        | Some d -> { step; result = Error (Validation_failed d) }
        | None -> (
            match
              Registry.replace registry ~name:step.component ~level:step.to_level
                ~iface:step.iface ~loc:step.loc ~description:step.description
                ~instance:(step.candidate ()) ()
            with
            | Ok entry -> { step; result = Ok (entry, validation) }
            | Error (`Incompatible_interface (a, b)) ->
                { step; result = Error (Interface_rejected (Fmt.str "%s vs %s" a b)) }
            | Error (`Would_lower_level _) ->
                {
                  step;
                  result =
                    Error
                      (Not_an_upgrade
                         { current = current.Registry.level; proposed = step.to_level });
                }
            | Error (`Interface_cannot_host level) ->
                {
                  step;
                  result =
                    Error
                      (Interface_rejected
                         (Fmt.str "interface cannot host %a" Level.pp level));
                })
      end

let run_plan ?validation_ops registry steps =
  List.map (fun step -> run_step ?validation_ops registry step) steps

let succeeded outcome = Result.is_ok outcome.result

let pp_outcome ppf outcome =
  match outcome.result with
  | Ok (entry, validation) ->
      Fmt.pf ppf "%-14s -> %-14s ok (%d ops validated)" outcome.step.component
        (Level.to_string entry.Registry.level)
        validation.checked
  | Error failure ->
      Fmt.pf ppf "%-14s -> %-14s FAILED: %a" outcome.step.component
        (Level.to_string outcome.step.to_level)
        pp_failure failure

(* §4.5 Rate of change: a patch is a same-level replacement of a
   component's implementation.  "Local changes to code require similarly
   local changes to proofs" — here, a patch triggers revalidation of the
   patched component only, and the cost is the validation trace, not a
   whole-kernel proof.  The ratchet still applies: a patch cannot lower
   the level, and a patch that diverges from the spec never lands. *)

type patch = {
  patch_component : string;
  patch_description : string;
  replacement : unit -> Kvfs.Iface.instance;
}

let apply_patch ?(validation_ops = 200) registry patch =
  match Registry.find registry patch.patch_component with
  | None -> Error Unknown_component
  | Some current -> (
      let validation = validate ~ops:validation_ops patch.replacement in
      match validation.divergence with
      | Some d -> Error (Validation_failed d)
      | None -> (
          match
            Registry.replace registry ~name:patch.patch_component
              ~level:current.Registry.level ~iface:current.Registry.iface
              ~description:patch.patch_description
              ~instance:(patch.replacement ()) ()
          with
          | Ok _ -> Ok validation
          | Error (`Incompatible_interface (a, b)) ->
              Error (Interface_rejected (Fmt.str "%s vs %s" a b))
          | Error (`Would_lower_level (current_level, proposed)) ->
              Error (Not_an_upgrade { current = current_level; proposed })
          | Error (`Interface_cannot_host level) ->
              Error (Interface_rejected (Fmt.str "cannot host %a" Level.pp level))))

(* The canonical migration: memfs from unsafe all the way to verified. *)
let memfs_ladder () : step list =
  let candidate (module F : Kvfs.Iface.FS_OPS) () = Kvfs.Iface.make (module F) () in
  [
    {
      component = "memfs";
      to_level = Level.Type_safe;
      iface = Interface.fs_interface;
      candidate = candidate (module Kfs.Memfs_typed);
      loc = 210;
      description = "rewritten without void pointers or errptr casts";
    };
    {
      component = "memfs";
      to_level = Level.Ownership_safe;
      iface = Interface.fs_interface;
      candidate = candidate (module Kfs.Memfs_owned);
      loc = 240;
      description = "content in checked ownership regions";
    };
    {
      component = "memfs";
      to_level = Level.Verified;
      iface = Interface.fs_interface;
      candidate = candidate (module Kfs.Memfs_verified);
      loc = 230;
      description = "refinement-checked against Fs_spec";
    };
  ]
