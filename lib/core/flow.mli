(** The end-to-end statistical fault injection flow (Fig. 3 of the paper).

    [create] performs the design-time part once:

    + generate the EX-stage ALU gate-level netlist;
    + apply die-specific process variation;
    + virtual synthesis: size every datapath unit against the clock
      constraint (STA limit calibrated to 707 MHz at 0.7 V, as in the
      case study) with area-recovery slack redistribution;
    + static timing analysis per endpoint (for models B and B+).

    Dynamic timing characterization (for model C) is performed lazily per
    (supply voltage, operand profile) and cached: each characterization
    runs the gate-level kernel with randomized operands and extracts the
    per-instruction, per-endpoint arrival-time distributions.

    The [model_*] constructors then package everything into the
    {!Sfi_fi.Model.t} values the simulator's injector consumes. *)

open Sfi_netlist
open Sfi_timing

type config = {
  clock_mhz : float;        (** STA limit at 0.7 V; the paper's 707 MHz *)
  char_cycles : int;        (** characterization kernel length; paper: 8000 *)
  char_seed : int;
  process_sigma : float;    (** per-gate random variation; 0.03 default *)
  die_seed : int;
  corner_factor : float;    (** global post-sizing delay multiplier for
                                process/temperature corners: 1.0 typical,
                                >1 slow, <1 fast *)
  lib : Cell_lib.t;
  vdd_model : Vdd_model.t;
  targets : Sizing.unit_target list;
}

val default_config : config

type t

val create : ?config:config -> unit -> t

val config : t -> config

val alu : t -> Alu.t

val sta_limit_mhz : t -> vdd:float -> float
(** The STA frequency limit at a supply voltage (the "STA" line of the
    paper's figures). *)

val char_db :
  ?profile:Characterize.operand_profile -> t -> vdd:float -> Characterize.t
(** Cached DTA characterization at [vdd] with the given operand profile
    (default uniform 32-bit). *)

val resources :
  ?profile:Characterize.operand_profile ->
  ?operating_vdd:float ->
  t ->
  vdd:float ->
  sigma:float ->
  Sfi_fi.Model.resources
(** The flow's inputs for {!Sfi_fi.Model.of_key}: STA endpoint arrivals
    and the cached DTA characterization ([profile], default uniform
    32-bit) at [vdd], each computed only when a model's build asks for
    it; supply noise of [sigma] volts; the flow's Vdd-delay curve. The
    models operate at [operating_vdd] (default [vdd]). *)

val model_by_key :
  ?params:(string * Sfi_obs.Json.t) list ->
  ?profile:Characterize.operand_profile ->
  t ->
  key:string ->
  vdd:float ->
  sigma:float ->
  (Sfi_fi.Model.t, string) result
(** Builds any model in {!Sfi_fi.Model.entries} by key over
    {!resources}: only B, B+ and glitch run STA, only C and C-corr
    characterize, and a bad parameter does neither. [params] override
    the entry's defaults (e.g. the glitch window). This is the CLI's
    [--model]/[--model-param] entry point — unknown keys and bad
    parameters come back as [Error] with the keys listed. *)

val model_a : bit_flip_prob:float -> Sfi_fi.Model.t

val model_b : t -> vdd:float -> Sfi_fi.Model.t

val model_bplus : t -> vdd:float -> sigma:float -> Sfi_fi.Model.t
(** Model B when [sigma = 0.]. *)

val model_c :
  ?sampling:Sfi_fi.Model.sampling ->
  ?profile:Characterize.operand_profile ->
  ?operating_vdd:float ->
  t ->
  vdd:float ->
  sigma:float ->
  unit ->
  Sfi_fi.Model.t
(** Model C (or C-corr) with CDFs characterized at [vdd]. [operating_vdd]
    (default [vdd]) rescales the CDFs through the Vdd-delay curve when
    the system operates away from the characterization voltage — the
    mechanism of the voltage-scaling study (Fig. 7). *)

val summary : t -> string
(** Human-readable description of the realized flow: netlist size,
    sizing report, STA limit, characterization state (the textual
    counterpart of the paper's Fig. 3 block diagram). *)
