(* The Figure-1 audit: where systems sit on the LoC-versus-safety plane.

   The literature rows reproduce the figure's landscape (Linux and
   FreeBSD at tens of millions of unsafe lines; Singularity and Biscuit
   type-safe at hundreds of thousands; Theseus and RedLeaf ownership-safe;
   seL4 and Hyperkernel verified at thousands); the kernel rows come from
   the live registry, tracing the "Safe Linux — incremental progress"
   arrow as migrations land. *)

type row = {
  system : string;
  loc : int;
  level : Level.t;
  ours : bool;
}

let literature =
  [
    { system = "Linux"; loc = 30_000_000; level = Level.Unsafe; ours = false };
    { system = "FreeBSD"; loc = 8_000_000; level = Level.Unsafe; ours = false };
    { system = "Singularity"; loc = 300_000; level = Level.Type_safe; ours = false };
    { system = "Biscuit"; loc = 90_000; level = Level.Type_safe; ours = false };
    { system = "Theseus"; loc = 38_000; level = Level.Ownership_safe; ours = false };
    { system = "RedLeaf"; loc = 30_000; level = Level.Ownership_safe; ours = false };
    { system = "seL4"; loc = 10_000; level = Level.Verified; ours = false };
    { system = "Hyperkernel"; loc = 7_000; level = Level.Verified; ours = false };
  ]

let kernel_rows registry =
  List.map
    (fun (e : Registry.entry) ->
      { system = "sim:" ^ e.Registry.name; loc = e.Registry.loc; level = e.Registry.level; ours = true })
    (Registry.all registry)

let figure1 registry = literature @ kernel_rows registry

let loc_band loc =
  if loc >= 10_000_000 then "tens of millions"
  else if loc >= 1_000_000 then "millions"
  else if loc >= 100_000 then "hundreds of thousands"
  else if loc >= 10_000 then "tens of thousands"
  else "thousands"

let render_figure1 ppf rows =
  Fmt.pf ppf "Figure 1: safety vs. lines of code@.";
  Fmt.pf ppf "%-20s %-22s %-16s %s@." "system" "LoC band" "safety" "";
  Fmt.pf ppf "%s@." (String.make 72 '-');
  let sorted =
    List.sort
      (fun a b ->
        match Level.compare a.level b.level with 0 -> compare b.loc a.loc | c -> c)
      rows
  in
  List.iter
    (fun r ->
      Fmt.pf ppf "%-20s %-22s %-16s %s@." r.system (loc_band r.loc)
        (Level.to_string r.level)
        (if r.ours then "<- this kernel" else ""))
    sorted

(* Roadmap progress as the share of the kernel's code at or above each
   rung — the quantity the incremental path improves step by step. *)
type progress = {
  total_loc : int;
  at_or_above : (Level.t * int) list;
}

let progress registry =
  let total_loc = Registry.total_loc registry in
  {
    total_loc;
    at_or_above =
      List.map (fun level -> (level, Registry.loc_at_or_above registry level)) Level.all;
  }

let render_progress ppf p =
  Fmt.pf ppf "kernel code at or above each safety rung (total %d LoC)@." p.total_loc;
  List.iter
    (fun (level, loc) ->
      let pct = if p.total_loc = 0 then 0. else 100. *. float_of_int loc /. float_of_int p.total_loc in
      Fmt.pf ppf "  %-16s %6d LoC  %5.1f%%@." (Level.to_string level) loc pct)
    p.at_or_above
