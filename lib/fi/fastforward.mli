(** Snapshot fast-forward, the campaign's trial engine for every
    registered model (DESIGN.md §13).

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

    The probe consumes exactly the RNG draws a full run would, so
    results, det signatures and checkpoint records are bit-identical to
    full replay from cycle 0. Traces persist in {!Sfi_cache} (namespace
    ["snap"], codec ["sfi-snap/1"]) keyed by benchmark content +
    stride. *)

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
    interpreter pass over the reference run): computed once per process
    ({!Sfi_cache.Once}) and, with a cache directory, once per directory
    ({!Sfi_cache.memo}, namespace ["snap"]; entries failing the
    post-load plausibility check are re-recorded). Keyed by image
    content ({!Bench.add_fingerprint}) and stride. [None] when the
    reference run does not exit cleanly — callers fall back to full
    replay; only a recorded trace is stored on disk. *)

val trace_for_model : bench:Bench.t -> model:Model.t -> stride:int -> trace option
(** {!trace_for}, counting each [None] on [fastforward.no_trace]
    (det:false): a benchmark whose reference run does not exit cleanly
    sends the campaign point to full replay. Every model fast-forwards,
    so [model] is not consulted; it stays in the signature for callers
    that pass it, such as the benchmark's per-layer probe. *)

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
    every registered model. Each trial is either elided (counted on
    [fastforward.trials_elided]) or restored from a snapshot
    ([fastforward.restores]). [budget] is the same absolute cycle
    watchdog a full-replay trial would use; resumed suffixes inherit
    the snapshot's cycle counter, so the watchdog trips at the
    identical absolute cycle. *)
