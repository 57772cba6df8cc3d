(** Pluggable fault-model registry.

    The paper's four timing-error models (Table 2) used to be a closed
    variant; they are now {e registered} models looked up by a stable
    string key, alongside adversarial attack families that inject faults
    into architectural state rather than datapath timing:

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

    A model value is immutable and shareable across trials; per-trial
    mutable state (RNG use, the skip model's EX latch, the state
    model's flips) lives in the {!instance} returned by {!instantiate}.

    {b Determinism and fingerprints.} Each model contributes its exact
    identity to cache/checkpoint fingerprints ({!add_fingerprint}); the
    five built-ins reproduce the historic byte sequences, so existing
    checkpoints, goldens and det signatures remain valid. New models
    hash their registry key, codec version and canonical parameters, so
    mixed-model sweeps dedupe and resume correctly.

    {b Fast-forward contract.} [skippable_gaussians] declares, per
    instruction class, whether a hook call is a provable no-op
    consuming exactly [k] standard-normal draws ({!Fastforward}'s probe
    batches those into one RNG jump). The probe replays each recorded
    hook call with its recorded cycle and zero operands, so a mask may
    depend on the cycle ([glitch]'s window) but not on operand values
    ([opcode]), on per-trial state the probe does not replay ([skip]'s
    EX latch) or on pre-run state ([state]'s flips). Those three declare
    {!cycle_dependent}[ = true]; the fast-forward engine refuses to
    probe them (counted, never silent) and falls back to full replay. *)

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
(** An instantiable fault model. Obtain one from a {!Registry} entry
    ({!of_key}) or from the {!Flow} helpers. *)

(** Per-trial instantiation: the inner sampling hook plus the per-trial
    state hooks the injector drives. *)
type instance = {
  sample : cycle:int -> cls:Op_class.t -> a:U32.t -> b:U32.t -> result:U32.t -> U32.t;
      (** XOR mask for one ALU execution; [0] = no fault. Consumes the
          trial RNG exactly as the model's draw contract declares. *)
  trial_start : Sfi_sim.Memory.t -> int;
      (** Per-trial state hook, called once after the benchmark image is
          loaded and before the first simulated cycle; returns the
          number of state bits it flipped (0 for all built-ins, which
          also draw nothing from the RNG). *)
  cannot_inject : bool;
      (** The fast path proved no fault can ever occur at this operating
          point: a single fault-free run stands for all trials. *)
  skippable_gaussians : Op_class.t -> int option;
      (** [Some k]: a hook call for this class is a provable no-op that
          consumes exactly [k] standard-normal draws (and nothing else).
          [None]: the call must actually run. *)
}

val key : t -> string
(** The registry key — the single source of truth for CLI parsing, JSON
    codecs and obs metric labels ("A", "B+", "glitch", ...). *)

val features : t -> features
(** The Table 2 row for the model. *)

val cycle_dependent : t -> bool
(** [true] when the fast-forward probe's schedule replay would be
    unsound: the mask depends on operand values or on per-trial state
    the probe does not replay, or the model perturbs pre-run state. A
    mask that depends on the cycle alone replays exactly (the probe
    passes each call its recorded cycle). [skip], [opcode] and [state]
    are cycle-dependent; the built-ins and [glitch] are not. *)

val params : t -> (string * Sfi_obs.Json.t) list
(** Canonical parameter assoc (defaults merged in registration order).
    Empty for models fully determined by their resources. *)

val to_string : t -> string
(** ["key"] or ["key{...params json...}"] — the printable form
    {!of_string} parses back. *)

val add_fingerprint : t -> Sfi_cache.Fingerprint.t -> unit
(** Appends the model's full identity (key, codec version, parameters
    and resource inputs) to a cache/checkpoint fingerprint. Byte-exact
    with the historic encoding for the five built-ins. *)

val instantiate : t -> count_obs:bool -> freq_mhz:float -> rng:Rng.t -> instance
(** [count_obs = false] silences the model's work counters (fast-forward
    probe replays); RNG consumption is identical either way. *)

(** Everything a registered model may need from the design flow. Models
    declare what they use ({!Registry.entry}); building one with a
    required resource missing is an [Error]. *)
type resources = {
  vdd : float;              (** operating supply voltage *)
  noise : Noise.t;          (** supply-noise model ([Noise.none] for B) *)
  vdd_model : Vdd_model.t;
  setup_ps : float;
  endpoint_arrivals : float array option;
      (** per-endpoint worst STA arrival at [vdd] (models B/B+/glitch) *)
  db : Characterize.t option;  (** DTA characterization (models C/C-corr) *)
}

val default_resources : resources
(** 0.7 V, no noise, the default Vdd-delay curve, the default setup
    margin, no STA arrivals, no characterization database. *)

module Registry : sig
  type entry = {
    key : string;          (** stable, unique (case-insensitive) *)
    doc : string;          (** one-line description for listings *)
    version : int;         (** parameter-codec version, part of new-model fingerprints *)
    features : features;
    cycle_dependent : bool;
    wants_arrivals : bool; (** requires [resources.endpoint_arrivals] *)
    wants_db : bool;       (** requires [resources.db] *)
    default_params : (string * Sfi_obs.Json.t) list;
        (** canonical parameter names, defaults and types *)
    build :
      resources:resources ->
      params:(string * Sfi_obs.Json.t) list ->
      (t, string) result;
  }

  val register : entry -> unit
  (** Raises [Invalid_argument] on a duplicate key. The nine shipped
      models self-register at module initialization. *)

  val find : string -> entry option
  (** Case-insensitive key lookup. *)

  val keys : unit -> string list
  (** Registration order: A, B, B+, C, C-corr, glitch, skip, opcode,
      state, then any externally registered models. *)

  val entries : unit -> entry list

  val make :
    ?params:(string * Sfi_obs.Json.t) list -> entry -> resources -> (t, string) result
  (** Builds the model; [params] override the entry's defaults. Unknown
      or mistyped parameter names are an [Error]. *)
end

val of_key :
  ?params:(string * Sfi_obs.Json.t) list ->
  resources:resources ->
  string ->
  (t, string) result
(** [Registry.find key |> make params] with an "unknown model" error
    listing the registered keys. *)

val of_string : resources:resources -> string -> (t, string) result
(** Parses {!to_string}'s form: a bare key, or [key{json object}]. *)

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

val feature_rows : unit -> (string * features) list
(** The four rows of the paper's Table 2 (static metadata, independent
    of any instantiation). For the full registry use
    {!Registry.entries}. *)
