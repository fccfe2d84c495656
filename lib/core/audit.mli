(** The Figure-1 audit: systems on the LoC-versus-safety plane, plus the
    kernel's own incremental progress from the live registry. *)

type row = {
  system : string;
  loc : int;
  level : Level.t;
  ours : bool;
}

val literature : row list
(** The landscape from the paper's Figure 1: Linux/FreeBSD (no
    guarantees), Singularity/Biscuit (type safety), Theseus/RedLeaf
    (ownership safety), seL4/Hyperkernel (functional verification). *)

val figure1 : Registry.t -> row list
val loc_band : int -> string
val render_figure1 : Format.formatter -> row list -> unit

type progress = {
  total_loc : int;
  at_or_above : (Level.t * int) list;
}

val progress : Registry.t -> progress
val render_progress : Format.formatter -> progress -> unit
