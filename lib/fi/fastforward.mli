(** Snapshot fast-forward, the campaign's trial engine for every model
    (DESIGN.md §13).

    A trial is bit-identical to the fault-free reference run until its
    first injected fault. Recording the reference run's hook-call
    schedule (cycle and class of every call) plus sparse architectural
    snapshots therefore lets a campaign

    - resolve provably fault-free trials analytically (no simulation):
      the {e probe} asks the model, call by call and without operands,
      whether the call may inject ({!Model.instance.may_inject}), on a
      copy of the trial's RNG stream;
    - and start every other trial from the last snapshot at or before
      the schedule entry preceding its first call that may inject (or
      from snapshot 0 when that call is the first entry), simulating
      only the suffix. Restoring before the previous entry lets the
      suffix rebuild per-trial state that call reads: [skip]'s EX latch
      holds the result of the call before its trigger.

    A model with a trial-start edit ([state]) restarts each trial from
    snapshot 0, where the edit runs before the run continues: full
    replay through the same engine, never elided.

    Every program has a trace. The reference run is recorded under the
    watchdog budget its trials run under ({!budget}), whatever stops it
    (exit, trap, jump-to-self or the budget itself), and the trace keeps
    its outcome, so a trial that is the reference run reports it, as a
    full replay does. There is no fallback to full replay: this module
    owns the reference — its cycle count, the trial budget, the snapshot
    stride and the trace.

    The probe consumes exactly the RNG draws a full run would, so
    results, det signatures and checkpoint records are bit-identical to
    full replay from cycle 0. Traces persist in {!Sfi_cache} (namespace
    ["snap"], codec ["sfi-snap/1"]) keyed by benchmark content +
    stride. *)

open Sfi_util
open Sfi_kernels

type trace

val reference_cycles : Bench.t -> int
(** The benchmark's fault-free cycle count (a run under
    {!Bench.run_fault_free}'s 50M-cycle watchdog): computed once per
    process ({!Sfi_cache.Once}) and, when the persistent cache is
    enabled ({!Sfi_cache.set_dir}), once per cache directory
    ({!Sfi_cache.memo}, namespace ["refcycles"]). Keyed by image content
    ({!Bench.add_fingerprint}), not the benchmark's name, so same-named
    benchmarks built from other inputs get their own count and identical
    images share one. *)

val budget : Bench.t -> int
(** The absolute cycle watchdog of every trial of the benchmark, and of
    its recorded reference run: 3x {!reference_cycles} plus 64k slack. *)

val trace : Bench.t -> trace
(** The benchmark's snapshot trace at the stride {!stride_for} picks
    for its {!reference_cycles}, recorded on first use (one interpreter
    pass over the reference run under {!budget}): computed once per
    process ({!Sfi_cache.Once}) and, with a cache directory, once per
    directory ({!Sfi_cache.memo}, namespace ["snap"]; entries failing
    the post-load plausibility check are re-recorded). Keyed by image
    content ({!Bench.add_fingerprint}) and stride. *)

val stride_for : ref_cycles:int -> int
(** Snapshot stride for a program of [ref_cycles] fault-free cycles:
    [max 64 (ref_cycles / 128)].
    Finer strides shrink the replayed snapshot-to-fault window; coarser
    ones shrink the trace. Exported for the benchmark harness, which
    times recording at this stride. *)

val trace_for : bench:Bench.t -> stride:int -> trace option
(** {!trace} at an explicit stride, always [Some]. Kept, with its
    option, for the benchmark harness and the tests, which pass their
    own strides; recorded and cached like {!trace}. *)

val trace_for_model : bench:Bench.t -> model:Model.t -> stride:int -> trace option
(** {!trace_for}; [model] is not consulted. Kept for the benchmark
    harness's per-layer probe, which passes it. *)

val first_fault :
  model:Model.t ->
  freq_mhz:float ->
  trace:trace ->
  rng:Rng.t ->
  (int * Op_class.t) option
(** The probe {!run_trial} runs, on its own, for statistical
    validation: the cycle and instruction class of the trial's first
    hook call that may inject, or [None] for a provably fault-free
    trial. Walks a copy of [rng]; the caller's stream is untouched.

    For models whose mask ignores operands (A, B, B+, C, C-corr,
    glitch) this is the first fault a full-replay run of the same
    stream injects. For [skip] and [opcode] it is the first trigger,
    whose mask can still be 0. A trial-start edit is not a hook call:
    [state] reports [None] for every stream, although {!run_trial}
    never elides a [state] trial. *)

val run_trial :
  bench:Bench.t ->
  model:Model.t ->
  freq_mhz:float ->
  budget:int ->
  trace:trace ->
  rng:Rng.t ->
  Trial.t
(** One fast-forwarded trial on the trial's pre-split [rng] stream (left
    untouched), equal to the full-replay trial of the same stream, for
    every model. Each trial is either elided (counted on
    [fastforward.trials_elided]) or restored from a snapshot
    ([fastforward.restores]). [budget] is the same absolute cycle
    watchdog a full-replay trial would use ({!budget}); resumed suffixes
    inherit the snapshot's cycle counter, so the watchdog trips at the
    identical absolute cycle. *)
