(** Bit-parallel dynamic timing analysis by levelized waveform walking.

    The packed counterpart of {!Dta}: one native word per net carries
    {!Sfi_netlist.Bitsim.lanes} independent trials, and instead of a
    global event heap each {!cycle} computes every net's per-cycle
    transition waveform — its sorted [(time, lane mask)] toggle list —
    in one pass over the compiled [(level, kind)] schedule, evaluating
    each gate once per distinct trigger time for all lanes at once.
    Per lane, event times and settle times are bit-identical to a
    scalar {!Dta} run fed the same stimulus (same pre-scaled delay
    arithmetic; see the determinism discussion in DESIGN.md §11 — the
    contract assumes the tie-free event schedules that per-gate process
    variation guarantees on production netlists).

    Usage per packed sweep: stage each lane's {e previous} input state
    with {!set_input_word}, call {!prime} to settle it functionally,
    stage the new inputs, then {!cycle} to run the timed transition. *)

open Sfi_netlist

type t

val create :
  ?vdd:float ->
  ?vdd_model:Vdd_model.t ->
  ?lib:Cell_lib.t ->
  ?watch:Circuit.net array ->
  Circuit.t ->
  t
(** Like {!Dta.create} (same delay model, same stable all-low starting
    state in every lane). [watch] selects the nets whose per-lane
    settle times are recorded (default: the primary outputs). *)

val set_input_word : t -> Circuit.net -> int -> unit
(** Stages a full word (one bit per lane) for a primary input; applied
    by the next {!prime} or {!cycle}, where the last word staged for a
    net wins. Raises [Invalid_argument] for a non-input net. *)

val prime : t -> unit
(** Applies staged inputs and settles every lane functionally (one
    levelized pass, no events, no settle times) — the state an event
    simulation of this acyclic circuit would converge to. *)

val cycle : t -> unit
(** Applies staged inputs as t = 0 transitions in exactly the lanes
    whose staged bit differs, then walks the compiled schedule to
    completion. Allocates nothing once the instance's waveform arena
    has grown to the stimulus. *)

val value : t -> Circuit.net -> lane:int -> bool

val read_lane_vec : t -> Circuit.net array -> lane:int -> int
(** Lane [lane] of a net vector as an integer, LSB first. *)

val settle_time : t -> Circuit.net -> lane:int -> float
(** Last value-change time (ps) of a watched net in one lane during the
    most recent {!cycle}, 0. if it did not change — bit-identical to
    {!Dta.settle_time} of that lane's scalar run. Raises
    [Invalid_argument] if the net is not watched. *)
