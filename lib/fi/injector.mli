(** Per-cycle fault injection: turns a {!Model.t} and an operating
    frequency into the {!Sfi_sim.Cpu.fault_hook} the simulator calls at
    every ALU execution, and counts the injected bit flips (the paper's
    "FIs per kCycle" numerator).

    The injector draws one supply-noise sample per ALU execution cycle.
    The paper draws one per clock cycle, but noise samples are i.i.d. and
    only the cycles with an ALU instruction in EX can inject, so the fault
    statistics are identical and the bubble-cycle draws are skipped.

    A fast path makes the "no errors possible" region cheap: when even the
    worst clipped noise excursion cannot make any characterized path (or
    static endpoint) violate the period, the hook is a constant zero. *)

open Sfi_util

type t

val create : ?count_obs:bool -> model:Model.t -> freq_mhz:float -> rng:Rng.t -> unit -> t
(** [count_obs] (default [true]) controls whether this injector and its
    model report to the obs registry. Timing loops and reference runs
    that must not show up in a campaign's counters pass
    [~count_obs:false]. Fast-forward's probe does not use an injector:
    it asks the model instance directly ({!Model.instance}). RNG
    consumption is identical either way. *)

val hook : t -> Sfi_sim.Cpu.fault_hook

val trial_start : t -> Sfi_sim.Memory.t -> int
(** Drives the model's per-trial state hook (architectural-state attack
    models flip bits in the freshly loaded image here) and folds the
    flips into the fault counts. Call once per trial, after the
    benchmark image is loaded and before the first simulated cycle.
    Returns the number of bits flipped — 0, with no draw, for every
    model without a trial-start hook. *)

val fault_bits : t -> int
(** Total bits flipped so far. *)

val fault_events : t -> int
(** ALU executions in which at least one bit flipped. *)

val fault_bits_by_class : t -> int array
(** Bit flips per {!Sfi_util.Op_class.index}: which instruction classes
    actually drive a workload's faults. *)

val cannot_inject : t -> bool
(** [true] when the fast path proves no fault can ever be injected at this
    operating point: the whole Monte-Carlo trial set is then a single
    deterministic fault-free run. *)
