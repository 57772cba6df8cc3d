(** Execution specification for Monte-Carlo runs.

    One value describes how a campaign (or any embarrassingly parallel
    sampling run) spends its budget: the trial policy, the root RNG seed,
    the worker-domain count and an optional checkpoint file. It replaces
    the [?trials ?seed ?jobs ... unit] optional-argument soup that used
    to be repeated on every entry point; build one with {!default} and
    the [with_*] combinators and thread it through.

    The type lives in [Sfi_util] (rather than next to the campaign
    engine) so lower layers — e.g. {!Characterize.run} — can accept the
    same record without a dependency cycle; [Sfi_fi.Campaign.Spec] is an
    alias of this module. *)

type trials_policy =
  | Fixed of int
      (** Exactly [n] trials per point — the pre-adaptive behaviour,
          bit-identical to it. *)
  | Adaptive of { batch : int; max_trials : int; ci_target : float }
      (** Trials run in deterministic batches of [batch]; after each
          batch a Wilson-score interval on the finished/correct rates
          plus a standard-error bound on the mean metrics decides
          whether the point stops early or escalates, up to
          [max_trials]. [ci_target] is the half-width the rates' 95%
          intervals must reach. *)

type t = {
  trials : trials_policy;
  seed : int;            (** root seed; per-trial streams are split from it *)
  jobs : int option;     (** worker domains; [None] = {!Pool.default_jobs} *)
  checkpoint : string option;
      (** completed batches stream to this JSONL file and are reloaded
          (CRC-validated) on the next run with an identical spec *)
}

val default : t
(** [Fixed 100] trials (the paper's minimum per data point), seed 1, the
    pool's default job count, no checkpoint. *)

val with_trials : int -> t -> t
val with_adaptive : ?batch:int -> ?max_trials:int -> ?ci_target:float -> t -> t
(** Defaults: [batch = 16], [max_trials = 1000], [ci_target = 0.05]. *)

val with_seed : int -> t -> t
val with_jobs : int -> t -> t
val with_checkpoint : string -> t -> t
val without_checkpoint : t -> t
val with_nominal_trials : int -> t -> t
(** [with_nominal_trials n t]: [Fixed _] becomes [Fixed n]; [Adaptive]
    keeps its batch and precision target but raises [max_trials] to at
    least [n]. Drivers with per-figure trial counts use this to scale a
    user-supplied policy template. *)

val validate : t -> t
(** Returns its argument; raises [Invalid_argument] on a non-positive
    trial count, batch, job count or precision target. All [with_*]
    builders validate already. *)

val max_trials : t -> int
(** The per-point ceiling: [n] for [Fixed n], [max_trials] otherwise. *)

val batch_size : t -> int
(** Trials per dispatch round: the whole point for [Fixed], the batch
    (clamped to [max_trials]) for [Adaptive]. *)

val ci_target : t -> float option
(** [None] for [Fixed]. *)

val policy_to_string : trials_policy -> string
(** Stable human-readable form, e.g. ["fixed:100"] or
    ["adaptive:batch=16,max=400,ci=0.05"]. *)
