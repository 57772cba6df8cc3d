(* Command-line options shared by the sfi subcommands, so that
   campaign/experiments/flow/stats parse -j/--jobs, --seed, --cache-dir,
   --obs and the adaptive-campaign flags identically. *)

open Cmdliner
module Spec = Sfi_fi.Campaign.Spec

(* A usage error: the message on stderr and exit 2, before any work. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "sfi: %s\n" msg;
      exit 2)
    fmt

(* Numeric flags no run can proceed on. At or below the alpha-power
   law's threshold voltage gate delays are infinite or meaningless, and
   characterization would simulate nonsense or fail mid-run. *)
let check_finite name v =
  if not (Float.is_finite v) then fail "--%s must be finite (got %g)" name v

let check_vdd vdd =
  check_finite "vdd" vdd;
  let vth = Sfi_timing.Vdd_model.(vth default) in
  if vdd <= vth then fail "--vdd must be above the %.2f V threshold voltage (got %g)" vth vdd

let check_cycles cycles = if cycles < 1 then fail "--cycles must be >= 1 (got %d)" cycles

(* --jobs (or SFI_JOBS): overrides the process-wide default job count
   (all cores) before any pool is created. This and --cache-dir are the
   only places the environment is read. *)
let jobs_arg =
  Arg.(value
       & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "SFI_JOBS")
           ~doc:"Worker domains for Monte-Carlo and characterization fan-out \
                 (default: all cores).")

let apply_jobs jobs =
  Option.iter
    (fun n ->
      if n < 1 then fail "--jobs (or SFI_JOBS) must be >= 1 (got %d)" n;
      Sfi_util.Pool.set_default_jobs n)
    jobs;
  Printf.printf "parallel engine: %d job(s) (of %d recommended domains)\n%!"
    (Sfi_util.Pool.default_jobs ())
    (Domain.recommended_domain_count ())

(* --obs: enables the observability registry for the run and writes the
   merged counter/histogram/span snapshot as JSONL on completion. *)
let obs_arg =
  Arg.(value
       & opt (some string) None
       & info [ "obs" ] ~docv:"FILE"
           ~doc:"Record observability counters during the run and write the merged \
                 snapshot to $(docv) as JSONL (schema sfi-obs/1).")

let with_obs obs f =
  (match obs with Some _ -> Sfi_obs.set_enabled true | None -> ());
  let r = f () in
  (match obs with
  | None -> ()
  | Some path ->
    Sfi_obs.write_jsonl
      ~meta:
        [
          ("jobs", Sfi_obs.Json.Int (Sfi_util.Pool.default_jobs ()));
          ("generated_unix", Sfi_obs.Json.Int (int_of_float (Unix.time ())));
        ]
      path;
    Printf.printf "wrote %s\n" path);
  r

(* --cache-dir (or SFI_CACHE_DIR): the persistent cache directory for
   `sfi cache` and for the commands that characterize or run campaigns.
   Off unless given; an empty value means no cache. *)
let cache_dir ~doc =
  Term.(
    const (function Some "" -> None | dir -> dir)
    $ Arg.(value
           & opt (some string) None
           & info [ "cache-dir" ] ~docv:"DIR" ~env:(Cmd.Env.info "SFI_CACHE_DIR") ~doc))

let cache_dir_arg =
  cache_dir
    ~doc:"Persist characterization databases, benchmark reference cycle counts \
          and fast-forward snapshot traces under $(docv) and reuse matching \
          entries on later runs (default: disabled)."

(* ---------- campaign spec flags ---------- *)

let seed_arg =
  Arg.(value
       & opt int Spec.default.Spec.seed
       & info [ "seed" ] ~docv:"N"
           ~doc:"Root RNG seed; per-trial streams are split from it deterministically.")

let adaptive_arg =
  Arg.(value
       & flag
       & info [ "adaptive" ]
           ~doc:"Adaptive-precision sampling: run trials in batches and stop each \
                 point as soon as its 95% confidence intervals reach --ci-target, \
                 escalating up to the trial ceiling otherwise.")

let batch_arg =
  Arg.(value
       & opt int 16
       & info [ "batch" ] ~docv:"N"
           ~doc:"Trials per adaptive batch (stopping decisions happen between \
                 batches; results do not depend on the batch size only via \
                 where a point stops).")

let max_trials_arg =
  Arg.(value
       & opt (some int) None
       & info [ "max-trials" ] ~docv:"N"
           ~doc:"Adaptive trial ceiling per point (default: the nominal trial \
                 count of the sweep or figure).")

let ci_target_arg =
  Arg.(value
       & opt float 0.05
       & info [ "ci-target" ] ~docv:"W"
           ~doc:"Adaptive precision target: maximum half-width of the finished/\
                 correct-rate 95% Wilson intervals (and relative standard error \
                 of the mean metrics).")

let checkpoint_arg =
  Arg.(value
       & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Stream completed trial batches to $(docv) (CRC-validated JSONL, \
                 schema sfi-ckpt/1); a killed run restarted with the same \
                 parameters resumes from it bit-identically.")

(* Builds the campaign spec from the shared flags. [fixed_trials] is the
   sweep's nominal per-point count (e.g. the campaign --trials value);
   when absent the policy template keeps Spec.default's count and the
   caller scales per figure with [Spec.with_nominal_trials].

   Adaptive ceiling: an explicit --max-trials wins; otherwise the
   nominal count itself is the ceiling (so the adaptive engine can only
   save trials relative to a fixed run, never spend more). Without a
   nominal count the template ceiling starts at the batch size and
   [with_nominal_trials] lifts it to each figure's count. *)
let make_spec ?fixed_trials ~seed ~adaptive ~batch ~max_trials ~ci_target ~checkpoint () =
  let spec = Spec.default |> Spec.with_seed seed in
  let spec =
    if adaptive then begin
      let ceiling =
        match (max_trials, fixed_trials) with
        | Some m, _ -> m
        | None, Some n -> n
        | None, None -> batch
      in
      Spec.with_adaptive ~batch ~max_trials:(max batch ceiling) ~ci_target spec
    end
    else
      match fixed_trials with
      | Some n -> Spec.with_trials n spec
      | None -> spec
  in
  match checkpoint with
  | Some path -> Spec.with_checkpoint path spec
  | None -> spec

(* The spec flags as one cmdliner bundle. Evaluates to a closure so each
   subcommand can feed in its own nominal trial count (campaign's
   --trials value; experiments leave it to the per-figure scaling).
   Invalid combinations (non-positive counts or targets) exit 2 with the
   validation message. *)
let spec_flags =
  let build seed adaptive batch max_trials ci_target checkpoint ?fixed_trials () =
    try
      make_spec ?fixed_trials ~seed ~adaptive ~batch ~max_trials ~ci_target ~checkpoint ()
    with Invalid_argument msg -> fail "%s" msg
  in
  Term.(const build $ seed_arg $ adaptive_arg $ batch_arg $ max_trials_arg
        $ ci_target_arg $ checkpoint_arg)

(* ---------- fault-model flags ---------- *)

(* --model: any key of Fi.Model.entries (case-insensitive); an unknown
   key is rejected by Flow.model_by_key, which lists the keys. *)
let model_arg =
  Arg.(value
       & opt string "C"
       & info [ "model" ] ~docv:"KEY"
           ~doc:"Fault model by key (see $(b,sfi models)): the paper's \
                 A, B, B+, C, C-corr, or an attack family (glitch, skip, \
                 opcode, state). Case-insensitive.")

(* --model-param: repeatable NAME=VALUE overrides for the model's
   default parameters; values parse as int, then float, then bool,
   else string, and Fi.Model.of_key validates names, types and values. *)
let model_param_arg =
  Arg.(value
       & opt_all string []
       & info [ "model-param" ] ~docv:"NAME=VALUE"
           ~doc:"Override one model parameter (repeatable), e.g. \
                 --model glitch --model-param start=200 --model-param \
                 drop_mv=150. The model checks each name, type and value.")

let parse_model_params specs =
  let parse_value v =
    match int_of_string_opt v with
    | Some i -> Sfi_obs.Json.Int i
    | None -> (
      match float_of_string_opt v with
      | Some f -> Sfi_obs.Json.Float f
      | None -> (
        match v with
        | "true" -> Sfi_obs.Json.Bool true
        | "false" -> Sfi_obs.Json.Bool false
        | s -> Sfi_obs.Json.String s))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
      match String.index_opt spec '=' with
      | Some i when i > 0 ->
        let name = String.sub spec 0 i in
        let v = String.sub spec (i + 1) (String.length spec - i - 1) in
        go ((name, parse_value v) :: acc) rest
      | _ -> Error (Printf.sprintf "bad --model-param %S (expected NAME=VALUE)" spec))
  in
  go [] specs
