open Sfi_util
open Sfi_kernels
module Spec = Sfi_util.Spec
module Json = Sfi_obs.Json

(* Observability. Trial, batch and point counts, the early-stop count
   and the per-trial kernel-cycles histogram are pure functions of the
   requested work (deterministic); the per-benchmark wall spans are not
   and are excluded from the determinism signature by construction. The
   resumed-trials counter depends on what a checkpoint file happens to
   hold, so it is ~det:false like the cache counters — note that under a
   checkpoint resume the executed-work counters (campaign.trials and the
   dta/injector families) legitimately shrink by the resumed amount; the
   determinism contract is "equal across job counts", not "equal across
   resume states". The registration order below is the order of the det
   signature. *)
let obs_trials = Sfi_obs.Counter.make "campaign.trials"

let obs_points = Sfi_obs.Counter.make "campaign.points"

let obs_batches = Sfi_obs.Counter.make "campaign.batches"

let obs_early_stops = Sfi_obs.Counter.make "campaign.early_stops"

let obs_resumed = Sfi_obs.Counter.make ~det:false "campaign.resumed_trials"

let obs_trial_cycles = Sfi_obs.Hist.make "campaign.trial_kernel_cycles"

let obs_bench_span name = Sfi_obs.Span.make ("campaign.bench." ^ name)

type trial = Trial.t = {
  finished : bool;
  correct : bool;
  fault_bits : int;
  fault_events : int;
  kernel_cycles : int;
  error : float;
}

type point = {
  freq_mhz : float;
  trials : int;
  trials_requested : int;
  finished_rate : float;
  correct_rate : float;
  ci_low : float;
  ci_high : float;
  fi_per_kcycle : float;
  mean_error : float;
  any_fault_possible : bool;
}

(* Kept as an alias for the benchmark harness. *)
let reference_cycles = Fastforward.reference_cycles

(* One trial on its pre-split stream, through the one engine. This is
   the one place a trial is counted. *)
let trial ~bench ~model ~freq_mhz ~budget ~trace rng =
  let t = Fastforward.run_trial ~bench ~model ~freq_mhz ~budget ~trace ~rng in
  Sfi_obs.Counter.incr obs_trials;
  Sfi_obs.Hist.observe obs_trial_cycles t.kernel_cycles;
  t

let run_trial ~bench ~model ~freq_mhz ~seed =
  trial ~bench ~model ~freq_mhz ~budget:(Fastforward.budget bench)
    ~trace:(Fastforward.trace bench) (Rng.of_int seed)

(* ---------- aggregation and the adaptive stopping rule ---------- *)

(* One pass over the trials accumulates every aggregate the point
   reports; folding in trial order keeps the float sums identical for any
   job count. *)
let aggregate ~freq_mhz ~any_fault_possible ~trials_requested trials_list =
  let n, n_finished, n_correct, fi_sum, err_sum =
    List.fold_left
      (fun (n, nf, nc, fi, es) t ->
        ( n + 1,
          (if t.finished then nf + 1 else nf),
          (if t.correct then nc + 1 else nc),
          fi +. (1000. *. float_of_int t.fault_bits /. float_of_int t.kernel_cycles),
          if t.finished then es +. t.error else es ))
      (0, 0, 0, 0., 0.) trials_list
  in
  let fn = float_of_int n in
  let correct_rate = float_of_int n_correct /. fn in
  let ci_low, ci_high =
    (* A proven fault-free point is deterministic: its single trial
       stands for every trial, so the interval degenerates to the exact
       rate instead of the (misleadingly wide) one-sample Wilson bound. *)
    if any_fault_possible then Stats.wilson_interval ~successes:n_correct ~trials:n ()
    else (correct_rate, correct_rate)
  in
  {
    freq_mhz;
    trials = n;
    trials_requested;
    finished_rate = float_of_int n_finished /. fn;
    correct_rate;
    ci_low;
    ci_high;
    fi_per_kcycle = fi_sum /. fn;
    mean_error = (if n_finished = 0 then nan else err_sum /. float_of_int n_finished);
    any_fault_possible;
  }

(* The stopping rule, evaluated after each completed batch on all trials
   accumulated so far. A point is converged when

   - the 95% Wilson intervals of both [finished_rate] and
     [correct_rate] have half-width <= ci_target, and
   - the standard errors of the mean of [fi_per_kcycle] and (over the
     finished trials) of [error] are within ci_target relative to the
     magnitude of their means (with a floor of 1.0 so near-zero means do
     not demand infinite precision).

   The rule is a pure function of the accumulated trial results in
   order, so the adaptive engine inherits the campaign's determinism
   contract: identical for every job count, and identical when batches
   are replayed from a checkpoint instead of recomputed. *)
let converged ~ci_target trials_list =
  let n = List.length trials_list in
  let n_finished = List.length (List.filter (fun t -> t.finished) trials_list) in
  let n_correct = List.length (List.filter (fun t -> t.correct) trials_list) in
  let halfwidth successes =
    let lo, hi = Stats.wilson_interval ~successes ~trials:n () in
    (hi -. lo) /. 2.
  in
  let se_ok samples =
    let k = Array.length samples in
    k < 2
    ||
    let m = Stats.mean samples in
    let se = Stats.stddev samples /. sqrt (float_of_int k) in
    se <= ci_target *. Float.max 1.0 (Float.abs m)
  in
  let fi_samples =
    Array.of_list
      (List.map
         (fun t -> 1000. *. float_of_int t.fault_bits /. float_of_int t.kernel_cycles)
         trials_list)
  in
  let err_samples =
    Array.of_list
      (List.filter_map (fun t -> if t.finished then Some t.error else None) trials_list)
  in
  halfwidth n_finished <= ci_target
  && halfwidth n_correct <= ci_target
  && se_ok fi_samples && se_ok err_samples

(* ---------- checkpoint codec and content keys ---------- *)

(* [error] round-trips through its IEEE-754 bit pattern (not a decimal
   rendering) so a resumed aggregate is bit-identical to the
   uninterrupted one, nan included. *)
let json_of_trial t =
  Json.List
    [
      Json.Bool t.finished;
      Json.Bool t.correct;
      Json.Int t.fault_bits;
      Json.Int t.fault_events;
      Json.Int t.kernel_cycles;
      Json.String (Printf.sprintf "%016Lx" (Int64.bits_of_float t.error));
    ]

let trial_of_json = function
  | Json.List
      [
        Json.Bool finished;
        Json.Bool correct;
        Json.Int fault_bits;
        Json.Int fault_events;
        Json.Int kernel_cycles;
        Json.String error_bits;
      ]
    when fault_bits >= 0 && fault_events >= 0 && kernel_cycles >= 1 -> (
    match Int64.of_string_opt ("0x" ^ error_bits) with
    | Some bits ->
      Some
        {
          finished;
          correct;
          fault_bits;
          fault_events;
          kernel_cycles;
          error = Int64.float_of_bits bits;
        }
    | None -> None)
  | _ -> None

let json_of_batch trials = Json.List (Array.to_list (Array.map json_of_trial trials))

(* A batch record is only usable if every trial decodes and the batch
   has exactly the length this run would compute — anything else is
   treated like a missing record and recomputed. *)
let batch_of_json ~expect = function
  | Json.List items when List.length items = expect ->
    let ts = List.filter_map trial_of_json items in
    if List.length ts = expect then Some (Array.of_list ts) else None
  | _ -> None

(* Content key of a point's trial stream: every input that determines
   the per-trial results — benchmark image, the full fault model, the
   operating frequency, the root seed and the batch size (which fixes
   the record layout). The adaptive ceiling and precision target are
   deliberately excluded: they only decide how many batches run, so a
   resume with a raised [max_trials] or a tightened [ci_target] still
   reuses every batch already on disk. The expensive model/bench part
   is hashed once per run/sweep; the per-point key only appends the
   frequency to that prefix. *)
let checkpoint_prefix (spec : Spec.t) ~bench ~model =
  let fp = Sfi_cache.Fingerprint.create "sfi-point-ckpt/1" in
  Bench.add_fingerprint bench fp;
  Model.add_fingerprint model fp;
  Sfi_cache.Fingerprint.add_int fp spec.Spec.seed;
  Sfi_cache.Fingerprint.add_int fp (Spec.batch_size spec);
  Sfi_cache.Fingerprint.hex fp

let point_key ~prefix ~freq_mhz =
  let fp = Sfi_cache.Fingerprint.create "sfi-point-ckpt/1" in
  Sfi_cache.Fingerprint.add_string fp prefix;
  Sfi_cache.Fingerprint.add_float fp freq_mhz;
  Sfi_cache.Fingerprint.hex fp

(* ---------- the adaptive batch engine ---------- *)

(* Determinism contract: the per-trial RNGs are split from the root seed
   in index order *before* any batch is dispatched (all [max_trials] of
   them, whether or not the point stops early), batches dispatch in
   index order, and the results come back from the pool in input order —
   so a point is bit-identical for every job count, and [Fixed n]
   reproduces the historic single-batch engine exactly. *)
let run_point_full pool (spec : Spec.t) ~ckpt ~bench ~model ~freq_mhz =
  Sfi_obs.Counter.incr obs_points;
  Sfi_obs.Span.time (obs_bench_span bench.Bench.name) @@ fun () ->
  let root = Rng.of_int (spec.Spec.seed lxor 0x0F1) in
  (* The point-level probe decides the fault-free region. Creating it
     also registers the model's det:true [injector.faults.<key>]
     counter, so a run of fault-free points alone keeps that entry in
     its det signature. *)
  let probe = Injector.create ~model ~freq_mhz ~rng:(Rng.copy root) () in
  let any_fault_possible = not (Injector.cannot_inject probe) in
  let trials_requested = Spec.max_trials spec in
  (* A proven fault-free point (the figures' "n/a" region) is one
     deterministic run: its single trial, on the root stream, stands
     for every trial and is never checkpointed. *)
  let rngs, ckpt =
    if any_fault_possible then (Array.init trials_requested (fun _ -> Rng.split root), ckpt)
    else ([| Rng.copy root |], None)
  in
  (* One snapshot trace per benchmark, shared by every trial of every
     point and every model. *)
  let budget = Fastforward.budget bench and trace = Fastforward.trace bench in
  let max_trials = Array.length rngs in
  let batch = Spec.batch_size spec in
  let key =
    match ckpt with
    | None -> ""
    | Some (_, prefix, _) -> point_key ~prefix ~freq_mhz
  in
  let batches = ref [] (* completed batches, newest first *) in
  let n_done = ref 0 and batch_idx = ref 0 and stop = ref false in
  while (not !stop) && !n_done < max_trials do
    let len = min batch (max_trials - !n_done) in
    let resumed =
      match ckpt with
      | None -> None
      | Some (_, _, index) ->
        Option.bind (Checkpoint.find index ~key ~batch:!batch_idx) (batch_of_json ~expect:len)
    in
    let computed =
      match resumed with
      | Some ts ->
        Sfi_obs.Counter.add obs_resumed len;
        ts
      | None ->
        let ts =
          Pool.map pool
            (trial ~bench ~model ~freq_mhz ~budget ~trace)
            (Array.sub rngs !n_done len)
        in
        (match ckpt with
        | Some (path, _, _) -> Checkpoint.append ~path ~key ~batch:!batch_idx (json_of_batch ts)
        | None -> ());
        ts
    in
    batches := computed :: !batches;
    n_done := !n_done + len;
    incr batch_idx;
    Sfi_obs.Counter.incr obs_batches;
    match Spec.ci_target spec with
    | Some ci_target when !n_done < max_trials ->
      if converged ~ci_target (List.concat_map Array.to_list (List.rev !batches)) then begin
        stop := true;
        Sfi_obs.Counter.incr obs_early_stops
      end
    | _ -> ()
  done;
  let all = List.concat_map Array.to_list (List.rev !batches) in
  (aggregate ~freq_mhz ~any_fault_possible ~trials_requested all, Array.of_list all)

let run_point_in pool spec ~ckpt ~bench ~model ~freq_mhz =
  fst (run_point_full pool spec ~ckpt ~bench ~model ~freq_mhz)

(* The checkpoint handle: (path, key prefix, index of valid on-disk
   records). Loaded once per run/sweep; the index is read-only
   afterwards, so concurrent points of a sweep may consult it without
   locking while appending fresh batches line-atomically. *)
let open_checkpoint (spec : Spec.t) ~bench ~model =
  match spec.Spec.checkpoint with
  | None -> None
  | Some path ->
    Some (path, checkpoint_prefix spec ~bench ~model, Checkpoint.load ~path)

let run spec ~bench ~model ~freq_mhz =
  let spec = Spec.validate spec in
  let ckpt = open_checkpoint spec ~bench ~model in
  Pool.using ?jobs:spec.Spec.jobs (fun pool ->
      run_point_in pool spec ~ckpt ~bench ~model ~freq_mhz)

let run_detailed spec ~bench ~model ~freq_mhz =
  let spec = Spec.validate spec in
  let ckpt = open_checkpoint spec ~bench ~model in
  Pool.using ?jobs:spec.Spec.jobs (fun pool ->
      run_point_full pool spec ~ckpt ~bench ~model ~freq_mhz)

let run_sweep spec ~bench ~model ~freqs_mhz =
  let spec = Spec.validate spec in
  let ckpt = open_checkpoint spec ~bench ~model in
  (* One pool serves both levels: frequency points pipeline through it
     while each point fans its trial batches out on the same executors. *)
  Pool.using ?jobs:spec.Spec.jobs (fun pool ->
      Pool.map_list pool
        (fun freq_mhz -> run_point_in pool spec ~ckpt ~bench ~model ~freq_mhz)
        freqs_mhz)

let point_of_first_failure points =
  points
  |> List.filter (fun p -> p.correct_rate < 1.0)
  |> List.fold_left
       (fun acc p ->
         match acc with
         | None -> Some p.freq_mhz
         | Some f -> Some (Float.min f p.freq_mhz))
       None

(* ---------- the sfi-point/1 JSON codec ---------- *)

module Point_json = struct
  let schema = "sfi-point/1"

  let num f = if Float.is_nan f then Json.Null else Json.Float f

  let of_point p =
    Json.Obj
      [
        ("freq_mhz", num p.freq_mhz);
        ("trials", Json.Int p.trials);
        ("trials_requested", Json.Int p.trials_requested);
        ("finished_rate", num p.finished_rate);
        ("correct_rate", num p.correct_rate);
        ("ci_low", num p.ci_low);
        ("ci_high", num p.ci_high);
        ("fi_per_kcycle", num p.fi_per_kcycle);
        ("mean_error", num p.mean_error);
        ("any_fault_possible", Json.Bool p.any_fault_possible);
      ]

  let of_sweep ?(meta = []) points =
    Json.Obj
      (("schema", Json.String schema)
      :: (meta @ [ ("points", Json.List (List.map of_point points)) ]))

  let to_string j = Json.to_string j
end
