(** Regenerators for every table and figure in the paper's evaluation.

    Each experiment prints the rows/series the paper reports (as text
    tables) to stdout, at one of two scales:

    - [fast]: reduced Monte-Carlo trial counts, coarser frequency grids
      and a shorter characterization kernel — minutes for the full set;
    - [paper]: the paper's settings (at least 100-200 trials per point,
      8 kCycle characterization, fine grids).

    The mapping from experiment ids to the paper's artifacts is in
    DESIGN.md's per-experiment index; EXPERIMENTS.md records the
    paper-vs-measured comparison. *)

type scale = {
  label : string;
  trials_fig5 : int;     (** Monte-Carlo trials for Fig. 5 (paper: 200) *)
  trials : int;          (** trials elsewhere (paper: >= 100) *)
  char_cycles : int;     (** DTA characterization kernel (paper: 8000) *)
  fig4_ops : int;        (** instruction stream length per Fig. 4 point *)
  dense_step : float;    (** relative frequency step in transition regions *)
}

val fast : scale
val paper : scale

type ctx

val make_ctx : ?spec:Sfi_fi.Campaign.Spec.t -> scale -> ctx
(** Builds the flow (netlist, sizing, STA) once; DTA characterizations
    are performed lazily as experiments need them.

    [spec] (default {!Sfi_fi.Campaign.Spec.default}) is the campaign
    policy template: every figure scales it to its own nominal trial
    count with [Spec.with_nominal_trials], so a [Fixed] template
    reproduces the historic per-figure counts bit-for-bit while an
    [Adaptive] one lets each point stop at the requested precision (or
    escalate to at least the figure's count). The template's seed, job
    count and checkpoint file apply to every campaign the experiments
    run. Raises [Invalid_argument] on an invalid spec. *)

val flow : ctx -> Flow.t

val all : (string * string) list
(** (experiment id, one-line description), in run order. *)

val run_one : ctx -> string -> bool
(** Runs one experiment by id; [false] for unknown ids. *)

val run : ctx -> string list -> unit
(** Runs the given ids (or everything when the list is empty), in the
    given order, printing a header and a wall time per experiment. Raises
    [Invalid_argument] naming every id not in {!all}, before running any. *)
