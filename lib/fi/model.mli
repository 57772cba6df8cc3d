(** The fault models: one fixed table of entries looked up by key.

    The paper's four timing-error models (Table 2) sit in the table
    beside adversarial attack families that inject faults into
    architectural state rather than datapath timing:

    - ["A"] — fixed-probability random bit flips, the conventional
      baseline: no link to timing, voltage, or the circuit.
    - ["B"] — static-timing based: a fault hits every endpoint whose
      worst static path exceeds the clock period, whenever any ALU
      instruction activates the stage.
    - ["B+"] — model B with per-cycle supply-voltage noise modulating
      all path delays through the fitted Vdd-delay curve.
    - ["C"] / ["C-corr"] — the paper's contribution: instruction-aware
      statistical injection using per-endpoint DTA distributions
      combined with the noise model, with independent or
      vector-correlated endpoint sampling.
    - ["glitch"] — attacker-chosen cycle windows in which the supply
      drops far below the noise band; the drop derates every STA
      endpoint through the Vdd-delay curve, so the paths that violate
      the period inside the window fault deterministically.
    - ["skip"] — InjectV-style instruction skip: with probability [p]
      an ALU instruction does not latch its result, so the EX result
      register keeps the previously written value.
    - ["opcode"] — InjectV-style opcode corruption: with probability
      [p] the instruction executes as a uniformly drawn {e other} ALU
      class on the same operands.
    - ["state"] — architectural-state attack: [flips] random single-bit
      upsets in a memory window, applied once at trial start.

    Adding a model is one edit: one entry in {!entries}.

    A model value is immutable and shareable across trials; per-trial
    mutable state (RNG use, the skip model's EX latch, the state
    model's flips) lives in the {!instance} returned by {!instantiate}.

    {b Determinism and fingerprints.} Each model contributes its exact
    identity to cache/checkpoint fingerprints ({!add_fingerprint}); the
    five paper models reproduce the historic byte sequences, so existing
    checkpoints, goldens and det signatures remain valid. The attack
    families hash their key, codec version and canonical parameters,
    so mixed-model sweeps dedupe and resume correctly.

    {b Fast-forward contract.} Every model serves {!Fastforward}'s
    probe, which walks the fault-free run's recorded hook calls (cycle
    and class, no operands) against a copy of the trial's RNG stream
    and stops at the first call {!instance.may_inject} answers [true]
    for. [may_inject] consumes exactly the draws [sample] would for the
    same call and answers [false] only where [sample] returns [0] for
    any operands and any per-trial state, so the probe never passes a
    fault by. A model that edits the image at trial start ([state])
    has no first hook call to find: the engine restarts its trials from
    cycle 0. [skippable_gaussians] lets the probe batch provable
    no-op calls into one RNG jump. *)

open Sfi_util
open Sfi_timing

type sampling = Independent | Vector_correlated

type features = {
  technique : string;
  timing_data : string;
  multi_vdd : bool;
  vdd_noise : bool;
  gate_level_aware : string;
  instruction_aware : bool;
}

type t
(** An instantiable fault model. Obtain one from {!of_key} or from the
    {!Flow} helpers. *)

(** Per-trial instantiation: the inner sampling hook, the fast-forward
    probe's question and the per-trial state hooks the injector drives. *)
type instance = {
  sample : cycle:int -> cls:Op_class.t -> a:U32.t -> b:U32.t -> result:U32.t -> U32.t;
      (** XOR mask for one ALU execution; [0] = no fault. Consumes the
          trial RNG exactly as the model's draw contract declares. *)
  may_inject : cycle:int -> cls:Op_class.t -> bool;
      (** Whether this hook call may inject, asked without operands:
          [false] only when [sample] would return [0] for any operands.
          Consumes exactly the draws [sample] consumes for the same
          call up to its answer; after a [true] the draws may differ,
          because the probe stops there. A, B, B+, C, C-corr and
          [glitch] answer [sample] on zero operands [<> 0]; [skip] and
          [opcode] answer their trigger, whose mask can still be [0];
          [state] always answers [false]. *)
  trial_start : (Sfi_sim.Memory.t -> int) option;
      (** Per-trial state hook, called once after the benchmark image is
          loaded and before the first simulated cycle; returns the
          number of state bits it flipped. [None] for every model that
          leaves the image alone (all but [state]). *)
  cannot_inject : bool;
      (** The fast path proved no fault can ever occur at this operating
          point: a single fault-free run stands for all trials. *)
  skippable_gaussians : Op_class.t -> int option;
      (** [Some k]: a hook call for this class is a provable no-op that
          consumes exactly [k] standard-normal draws (and nothing else).
          [None]: the call must actually run. *)
}

val key : t -> string
(** The table key — the single source of truth for CLI parsing, JSON
    meta and obs metric labels ("A", "B+", "glitch", ...). *)

val params : t -> (string * Sfi_obs.Json.t) list
(** Canonical parameter assoc (defaults merged in declaration order).
    Empty for models fully determined by their resources. *)

val to_string : t -> string
(** ["key"] or ["key{...params json...}"]: the label the CLI writes
    into JSON meta. *)

val add_fingerprint : t -> Sfi_cache.Fingerprint.t -> unit
(** Appends the model's full identity (key, codec version, parameters
    and resource inputs) to a cache/checkpoint fingerprint. Byte-exact
    with the historic encoding for the five built-ins. *)

val instantiate : t -> count_obs:bool -> freq_mhz:float -> rng:Rng.t -> instance
(** [count_obs = false] silences the model's work counters (fast-forward
    probes and timing loops); RNG consumption is identical either way. *)

(** Everything a model may need from the design flow. The timing data
    comes from providers: an entry's [build] calls only the one it
    uses, and only once its parameters have validated, so A, the
    attacks and any rejected parameter never pay for STA or
    characterization. *)
type resources = {
  vdd : float;              (** operating supply voltage *)
  noise : Noise.t;          (** supply-noise model (B ignores it) *)
  vdd_model : Vdd_model.t;
  setup_ps : float;
  endpoint_arrivals : unit -> float array;
      (** per-endpoint worst STA arrival at [vdd] (models B/B+/glitch) *)
  db : unit -> Characterize.t;  (** DTA characterization (models C/C-corr) *)
}

val default_resources : resources
(** 0.7 V, no noise, the default Vdd-delay curve and setup margin. Both
    providers raise [Invalid_argument] naming the missing input, so
    these build only the models that need neither. *)

type entry = {
  key : string;          (** stable, unique (case-insensitive) *)
  doc : string;          (** one-line description for listings *)
  features : features;   (** the model's Table 2 row *)
  default_params : (string * Sfi_obs.Json.t) list;
      (** canonical parameter names, defaults and types *)
  build :
    resources:resources -> params:(string * Sfi_obs.Json.t) list -> (t, string) result;
      (** Checks the values of the merged parameters, then calls the
          providers the model uses. *)
}

val entries : entry list
(** A, B, B+, C, C-corr, glitch, skip, opcode, state. *)

val find : string -> entry option
(** Case-insensitive key lookup. *)

val of_key :
  ?params:(string * Sfi_obs.Json.t) list ->
  resources:resources ->
  string ->
  (t, string) result
(** Merges [params] over the entry's defaults (unknown names and
    mistyped values are an [Error]) and builds. An unknown key is an
    [Error] listing the keys. *)

(** Exact CDF ranks for model C's fault path.

    Per operation class, model ["C"] builds one guide over the class's
    endpoint distributions when the model is made: a monotone bucket
    function over the class's sample range and a table of each
    endpoint's first sample per bucket. A rank lookup is then a table
    read and a short in-bucket scan instead of a binary search, and it
    is exact: {!count_leq} equals [Cdf.count_leq] and {!prob_greater}
    is bit-identical to [Cdf.prob_greater] for every threshold,
    including infinities and NaN. Exposed for tests. *)
module Rank : sig
  type t

  val build : Cdf.t array -> t
  (** [build cdfs]: one guide over the endpoint distributions [cdfs]
      (shared, not copied). *)

  val count_leq : t -> endpoint:int -> float -> int
  (** The number of [endpoint]'s samples [<= x]. Raises
      [Invalid_argument] on an out-of-range endpoint. *)

  val prob_greater : t -> endpoint:int -> float -> float
  (** The fraction of [endpoint]'s samples strictly greater than [x]. *)
end
