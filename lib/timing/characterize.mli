(** Instruction-aware statistical timing characterization (the core of the
    paper's model C).

    Runs the gate-level characterization kernel: for each ALU operation
    class, the DTA simulator executes [cycles] back-to-back operations with
    randomized operands (the paper uses an 8 kCycle kernel) and records the
    settle time of every endpoint in every cycle. The resulting empirical
    distributions give the timing-error probability
    [P_{E,V,I}(f) = v_f /. n_I] of paper §3.4: the fraction of
    characterization cycles in which the dynamic path delay to endpoint
    [E] (plus setup) exceeds the clock period [1/f].

    Characterization is conditioned on an operand profile per class;
    besides the default uniform 32-bit profile, a 16-bit-range profile
    reproduces the paper's 16-bit addition / multiplication experiments
    (Fig. 4). *)

open Sfi_util
open Sfi_netlist

type operand_profile = {
  profile_name : string;
  sample : Rng.t -> U32.t * U32.t;  (** draws one (a, b) operand pair *)
}

val uniform32 : operand_profile
(** Both operands uniform over the full 32-bit range. *)

val uniform16 : operand_profile
(** Both operands uniform over a 16-bit value range (paper's "16-bit"
    instruction variants). *)

val uniform8 : operand_profile

type class_db = {
  cls : Op_class.t;
  profile_name : string;
  endpoint_cdfs : Cdf.t array;
      (** per endpoint bit: distribution of raw settle times (ps, at the
          characterization voltage, without setup) *)
  cycle_arrivals : float array array;
      (** [cycle_arrivals.(k).(e)]: settle time of endpoint [e] in
          characterization cycle [k]; kept for vector-correlated fault
          sampling *)
  max_settle : float;  (** max settle over all endpoints and cycles *)
}

type t = {
  vdd : float;            (** characterization supply voltage *)
  setup_ps : float;
  cycles : int;
  classes : class_db array;  (** dense, indexed by [Op_class.index] *)
  max_settle : float;        (** max over all classes *)
}

val run :
  ?cycles:int ->
  ?seed:int ->
  ?setup_ps:float ->
  ?vdd_model:Vdd_model.t ->
  ?lib:Cell_lib.t ->
  ?profile_for:(Op_class.t -> operand_profile) ->
  ?spec:Spec.t ->
  vdd:float ->
  Alu.t ->
  t
(** [run ~vdd alu] characterizes every class with [cycles] (default 8000)
    random-operand cycles at supply [vdd]. [profile_for] (default
    [uniform32] for every class) selects the operand distribution per
    class. During characterization the DTA's functional results are
    checked against [Op_class.apply]; a mismatch raises [Failure] (it
    would indicate a broken netlist or simulator).

    The kernel is {!Dta_packed}: ⌈cycles/lanes⌉ bit-parallel sweeps of
    {!Sfi_netlist.Bitsim.lanes} trials per class. A class's trials form
    one chain, each launched from the previous trial's settled state.
    Each class's RNG stream is split from [seed] in class order, and its
    whole operand chain is sampled in trial order before any sweep is
    dispatched, so the stream is the chain's. The tests pin the database
    bit-identical to a scalar reference kernel that runs the chain one
    event-driven DTA cycle per trial.

    Every sweep of every class is one task on a domain pool. A sweep
    covers a fixed range of trials, starts from the operands of the
    trial before it (the chain's carry), writes its own rows of
    [cycle_arrivals] and reports its max settle; a class's [max_settle]
    is the max over its sweeps. Neither the operands nor the sweep
    boundaries depend on scheduling, so the database is byte-identical
    for every job count. Tasks borrow DTA instances from a free list
    kept for the run: the calling domain creates one per executor before
    dispatch, and none outlives the run. The worker count is [spec]'s
    [jobs] field when a {!Sfi_util.Spec.t} is given (its other fields
    are ignored here: the characterization seed stays [seed], so chardb
    cache fingerprints do not depend on campaign specs), otherwise
    [Sfi_util.Pool.default_jobs ()]. With observability on, the span
    [characterize.class.<name>] sums each class's sweep time. *)

val class_db : t -> Op_class.t -> class_db

val error_probability :
  t -> Op_class.t -> endpoint:int -> period_ps:float -> scale:float -> float
(** [error_probability t cls ~endpoint ~period_ps ~scale] is
    [P((settle +. setup) *. scale > period)] — the probability that this
    endpoint latches a wrong value when instruction class [cls] executes
    with clock period [period_ps] while all delays are modulated by
    [scale] (the supply-noise CDF scaling factor; 1.0 = no noise). *)

val class_first_failure_mhz : t -> Op_class.t -> scale:float -> float
(** The highest frequency (MHz) at which this class still has zero error
    probability on every endpoint under delay modulation [scale] — the
    class's dynamic-timing limit. *)

val violation_mask : t -> Op_class.t -> cycle:int -> period_ps:float -> scale:float -> int
(** For vector-correlated sampling: the 32-bit mask of endpoints whose
    settle time in characterization cycle [cycle] violates the (scaled)
    period. *)
