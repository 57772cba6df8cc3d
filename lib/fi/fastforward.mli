(** Snapshot fast-forward, the campaign's trial engine (DESIGN.md §13).

    A trial is bit-identical to the fault-free reference run until its
    first injected fault: the fault-model hooks depend only on the
    instruction class and the trial's private RNG stream. Recording the
    reference run's hook-call schedule plus sparse architectural
    snapshots therefore lets a campaign

    - resolve provably fault-free trials analytically (no simulation),
    - and start every faulty trial from the snapshot nearest before its
      first fault, simulating only the suffix —

    while consuming exactly the RNG draws a full run would, so results,
    det signatures and checkpoint records are bit-identical to full
    replay from cycle 0. Traces persist in {!Sfi_cache} (namespace
    ["snap"], codec ["sfi-snap/1"]) keyed by benchmark content + stride. *)

open Sfi_util
open Sfi_kernels

type trace

val page_size : int
(** Granularity of the per-snapshot memory deltas, in bytes. *)

val stride_for : ref_cycles:int -> int
(** Snapshot stride for a program of [ref_cycles] fault-free cycles:
    [max 64 (ref_cycles / 128)].
    Finer strides shrink the replayed snapshot-to-fault window; coarser
    ones shrink the trace. *)

val trace_for : bench:Bench.t -> stride:int -> trace option
(** The benchmark's snapshot trace, recorded on first use (one
    interpreter pass over the reference run) and memoized both
    in-process and in {!Sfi_cache}. [None] when the reference run does
    not exit cleanly — callers fall back to full replay. *)

val trace_for_model : bench:Bench.t -> model:Model.t -> stride:int -> trace option
(** {!trace_for}, gated on the model's fast-forward contract; [None]
    sends the campaign point to full replay, and each such fallback is
    counted (det:false):
    - a {!Model.cycle_dependent} model (every attack family) bumps
      [fastforward.model_unsupported] without recording a trace: the
      probe's schedule replay assumes masks ignore cycle numbers,
      operand values and pre-run state, so it would be unsound;
    - a benchmark whose reference run does not exit cleanly bumps
      [fastforward.no_trace]. *)

val first_fault :
  model:Model.t ->
  freq_mhz:float ->
  trace:trace ->
  rng:Rng.t ->
  (int * Op_class.t) option
(** The analytic first-fault sampler on its own, for statistical
    validation: the cycle and instruction class of the trial's first
    injected fault, or [None] for a provably fault-free trial. Walks a
    copy of [rng]; the caller's stream is untouched. By the
    draw-accounting contract this equals the first fault a full-replay
    run of the same stream would inject. *)

val run_trial :
  bench:Bench.t ->
  model:Model.t ->
  freq_mhz:float ->
  budget:int ->
  trace:trace ->
  rng:Rng.t ->
  Trial.t
(** One fast-forwarded trial on the trial's pre-split [rng] stream,
    equal to the full-replay trial of the same stream. [budget] is the
    same absolute cycle watchdog a full-replay trial would use; resumed
    suffixes inherit the snapshot's cycle counter, so the watchdog trips
    at the identical absolute cycle. *)
