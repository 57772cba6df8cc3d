open Sfi_util
open Sfi_sim
open Sfi_kernels
open Sfi_fi

let trial ~(bench : Bench.t) ~model ~freq_mhz ~budget rng =
  let injector = Injector.create ~count_obs:false ~model ~freq_mhz ~rng () in
  let mem = Bench.fresh_memory bench in
  ignore (Injector.trial_start injector mem : int);
  let config =
    {
      Cpu.default_config with
      Cpu.max_cycles = budget;
      Cpu.fault_hook = Some (Injector.hook injector);
    }
  in
  let stats = Cpu.run ~config mem ~entry:bench.Bench.program.Sfi_isa.Program.entry in
  let finished = stats.Cpu.outcome = Cpu.Exited in
  let output = if finished then Bench.read_output bench mem else [||] in
  {
    Campaign.finished;
    correct = finished && output = bench.Bench.golden;
    fault_bits = Injector.fault_bits injector;
    fault_events = Injector.fault_events injector;
    kernel_cycles = max 1 stats.Cpu.kernel_cycles;
    error =
      (if finished then bench.Bench.metric ~expected:bench.Bench.golden ~actual:output
       else nan);
  }

(* Folds in trial order, so the float sums match the production fold. *)
let aggregate ~freq_mhz ~any_fault_possible ~trials_requested (ts : Campaign.trial array) =
  let n = Array.length ts in
  let count p = Array.fold_left (fun k t -> if p t then k + 1 else k) 0 ts in
  let n_finished = count (fun t -> t.Campaign.finished) in
  let n_correct = count (fun t -> t.Campaign.correct) in
  let fi_sum =
    Array.fold_left
      (fun s t ->
        s +. (1000. *. float_of_int t.Campaign.fault_bits /. float_of_int t.Campaign.kernel_cycles))
      0. ts
  in
  let err_sum =
    Array.fold_left
      (fun s t -> if t.Campaign.finished then s +. t.Campaign.error else s)
      0. ts
  in
  let fn = float_of_int n in
  let correct_rate = float_of_int n_correct /. fn in
  let ci_low, ci_high =
    if any_fault_possible then Stats.wilson_interval ~successes:n_correct ~trials:n ()
    else (correct_rate, correct_rate)
  in
  {
    Campaign.freq_mhz;
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

let run_detailed ~trials ~seed ~bench ~model ~freq_mhz =
  let ref_stats, _ = Bench.run_fault_free bench in
  let run = trial ~bench ~model ~freq_mhz ~budget:((3 * ref_stats.Cpu.cycles) + 65536) in
  let root = Rng.of_int (seed lxor 0x0F1) in
  let probe = Injector.create ~count_obs:false ~model ~freq_mhz ~rng:(Rng.copy root) () in
  let any_fault_possible = not (Injector.cannot_inject probe) in
  let ts =
    if any_fault_possible then Array.map run (Array.init trials (fun _ -> Rng.split root))
    else [| run (Rng.copy root) |]
  in
  (aggregate ~freq_mhz ~any_fault_possible ~trials_requested:trials ts, ts)

let run ~trials ~seed ~bench ~model ~freq_mhz =
  fst (run_detailed ~trials ~seed ~bench ~model ~freq_mhz)
