(* Benchmark harness.

   Running this executable regenerates every table and figure of the
   paper's evaluation (DESIGN.md maps experiment ids to paper artifacts;
   EXPERIMENTS.md records paper-vs-measured numbers):

     dune exec bench/main.exe                 # all experiments, fast scale
     dune exec bench/main.exe -- fig5 fig6    # a subset
     dune exec bench/main.exe -- --paper      # paper-scale Monte-Carlo (slow)
     dune exec bench/main.exe -- --bechamel   # only the Bechamel microbenches
     dune exec bench/main.exe -- --jobs 4     # pin the domain-pool size
     dune exec bench/main.exe -- --smoke      # one fast parallel-vs-serial sweep
     dune build @bench-smoke                  # the same, as a dune alias

   After the experiment regeneration, a Bechamel micro-benchmark suite
   times the computational core of each table/figure driver plus the
   engine primitives (one [Test.make] per artifact).

   Every run ends by writing BENCH.json — per-experiment wall times, the
   Bechamel estimates, the serial engine throughput (DTA events/sec,
   injector hook calls/sec, interpreter-vs-compiled ISS insns/sec,
   characterize vs campaign wall split) and the parallel-smoke speedup —
   so successive PRs can track the performance trajectory mechanically. *)

open Sfi_util
open Sfi_core

(* ---------- Bechamel microbenchmark suite ---------- *)

let bechamel_suite () =
  let open Bechamel in
  (* Shared fixtures, built once. *)
  let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 600 } () in
  let alu = Flow.alu flow in
  let db = Flow.char_db flow ~vdd:0.7 in
  let median_small = Sfi_kernels.Median.create ~n:17 () in
  let matmul_small = Sfi_kernels.Matmul.create ~n:6 ~bits:8 () in
  let model_c = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let model_bplus = Flow.model_bplus flow ~vdd:0.7 ~sigma:0.010 in
  let logic = Sfi_oracle.Logic_sim.create alu.Sfi_netlist.Alu.circuit in
  let dta = Sfi_oracle.Dta.create alu.Sfi_netlist.Alu.circuit in
  let rng = Rng.of_int 77 in
  let tests =
    [
      (* one Test.make per table / figure driver *)
      Test.make ~name:"table1:iss-fault-free-run"
        (Staged.stage (fun () -> ignore (Sfi_kernels.Bench.run_fault_free median_small)));
      Test.make ~name:"table2:model-feature-rows"
        (Staged.stage (fun () -> ignore (Sfi_fi.Model.feature_rows ())));
      Test.make ~name:"fig1:bplus-injector-hook"
        (Staged.stage (fun () ->
             let injector =
               Sfi_fi.Injector.create ~model:model_bplus ~freq_mhz:663. ~rng ()
             in
             ignore
               (Sfi_fi.Injector.hook injector ~cycle:0 ~cls:Op_class.Add ~a:1 ~b:2
                  ~result:3)));
      Test.make ~name:"fig2:cdf-probability-eval"
        (Staged.stage (fun () ->
             ignore
               (Sfi_timing.Characterize.error_probability db Op_class.Mul ~endpoint:24
                  ~period_ps:1100. ~scale:1.03)));
      Test.make ~name:"fig3:sta-full-alu"
        (Staged.stage (fun () -> ignore (Sfi_timing.Sta.analyze alu.Sfi_netlist.Alu.circuit)));
      Test.make ~name:"fig4:model-c-op-stream-100"
        (Staged.stage (fun () ->
             let injector = Sfi_fi.Injector.create ~model:model_c ~freq_mhz:850. ~rng () in
             let hook = Sfi_fi.Injector.hook injector in
             for i = 1 to 100 do
               let a = Rng.bits32 rng and b = Rng.bits32 rng in
               ignore (hook ~cycle:i ~cls:Op_class.Add ~a ~b ~result:(U32.add a b))
             done));
      Test.make ~name:"fig5:mc-trial-median"
        (Staged.stage (fun () ->
             ignore
               (Sfi_fi.Campaign.run_trial ~bench:median_small ~model:model_c
                  ~freq_mhz:820. ~seed:(Rng.bits32 rng))));
      Test.make ~name:"fig6:mc-trial-matmul"
        (Staged.stage (fun () ->
             ignore
               (Sfi_fi.Campaign.run_trial ~bench:matmul_small ~model:model_c
                  ~freq_mhz:760. ~seed:(Rng.bits32 rng))));
      Test.make ~name:"fig7:power-model-eval"
        (Staged.stage (fun () ->
             ignore (Power.normalized ~vdd:0.66);
             ignore (Power.equivalent_vdd Sfi_timing.Vdd_model.default ~headroom_ratio:1.05)));
      (* engine primitives *)
      Test.make ~name:"engine:logic-sim-alu-eval"
        (Staged.stage (fun () ->
             Sfi_oracle.Logic_sim.drive_alu alu logic Op_class.Mul (Rng.bits32 rng)
               (Rng.bits32 rng);
             Sfi_oracle.Logic_sim.eval logic));
      Test.make ~name:"engine:dta-alu-cycle"
        (Staged.stage (fun () ->
             Sfi_oracle.Dta.set_input_vec dta alu.Sfi_netlist.Alu.a (Rng.bits32 rng);
             Sfi_oracle.Dta.set_input_vec dta alu.Sfi_netlist.Alu.b (Rng.bits32 rng);
             Sfi_oracle.Dta.cycle dta));
      Test.make ~name:"engine:iss-small-program"
        (Staged.stage
           (let program =
              Sfi_isa.Asm.assemble_exn
                {|
        l.addi r1, r0, 111
loop:   l.addi r2, r2, 3
        l.mul  r3, r2, r1
        l.xor  r4, r3, r2
        l.addi r1, r1, -1
        l.sfnei r1, 0
        l.bf   loop
        l.nop  0x1
                |}
            in
            fun () ->
              let mem = Sfi_sim.Memory.create ~size:4096 in
              Sfi_sim.Memory.load_program mem program;
              ignore (Sfi_sim.Cpu.run mem ~entry:0)));
    ]
  in
  let test = Test.make_grouped ~name:"sfi" ~fmt:"%s/%s" tests in
  (* stabilize:false — bechamel's per-sample stabilization loop (repeated
     Gc.compact until live words settle, thousands of times across the
     suite) leaves the OCaml 5.1 major-GC pacing stalled for the rest of
     the process: after the suite returns, major-heap allocation stops
     triggering slices, the heap balloons unbounded, and every
     measurement downstream of this function (iss/cache/smoke/adaptive)
     reads 2-6x slow. A lone Gc.compact does not trigger the stall. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  let rows = List.sort compare !rows in
  let t =
    Table.create ~title:"Bechamel microbenchmarks (monotonic clock)"
      [ ("benchmark", Table.Left); ("time/run", Table.Right) ]
  in
  let fmt_ns ns =
    if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter (fun (name, est) -> Table.add_row t [ name; fmt_ns est ]) rows;
  Table.print t;
  rows

(* ---------- engine throughput: events/sec, insns/sec, phase split ---------- *)

type perf = {
  events_per_sec : float; (* DTA events evaluated per second, sized ALU *)
  injector_hook_calls_per_sec : float; (* model-C injector hook calls per second *)
  characterize_wall_s : float; (* one cold 0.7 V characterization *)
  mutable campaign_wall_s : float; (* serial Monte-Carlo sweep (from smoke) *)
}

(* Serial hot-loop throughput, measured directly so BENCH.json pins the
   event-kernel and injector fast-path speed for future PRs, independent
   of experiment composition. *)
let perf_metrics () =
  let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 2000 } () in
  let alu = Flow.alu flow in
  (* Characterize phase: one cold per-class DB extraction at 0.7 V. *)
  let t0 = Unix.gettimeofday () in
  ignore (Flow.char_db flow ~vdd:0.7);
  let characterize_wall_s = Unix.gettimeofday () -. t0 in
  (* Scalar (reference) DTA events/sec on the sized (post-variation) ALU. *)
  let dta = Sfi_oracle.Dta.create alu.Sfi_netlist.Alu.circuit in
  let rng = Rng.of_int 1234 in
  let drive_cycle () =
    Sfi_oracle.Dta.set_input_vec dta alu.Sfi_netlist.Alu.a (Rng.bits32 rng);
    Sfi_oracle.Dta.set_input_vec dta alu.Sfi_netlist.Alu.b (Rng.bits32 rng);
    Sfi_oracle.Dta.cycle dta
  in
  for _ = 1 to 200 do drive_cycle () done;
  let e0 = Sfi_oracle.Dta.events_processed dta in
  let t0 = Unix.gettimeofday () in
  let cycles = 20_000 in
  for _ = 1 to cycles do drive_cycle () done;
  let dta_wall = Unix.gettimeofday () -. t0 in
  let events = Sfi_oracle.Dta.events_processed dta - e0 in
  let events_per_sec = float_of_int events /. Float.max 1e-9 dta_wall in
  (* Injector hook calls/sec: model C in the transition region, where the
     per-call noise draw and threshold math actually run. *)
  let fsta = Flow.sta_limit_mhz flow ~vdd:0.7 in
  let model = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let injector =
    Sfi_fi.Injector.create ~model ~freq_mhz:(fsta *. 1.15) ~rng ()
  in
  let hook = Sfi_fi.Injector.hook injector in
  let call i cls =
    let a = Rng.bits32 rng and b = Rng.bits32 rng in
    ignore (hook ~cycle:i ~cls ~a ~b ~result:(U32.add a b) : int)
  in
  for i = 1 to 10_000 do
    call i (if i land 1 = 0 then Op_class.Add else Op_class.Mul)
  done;
  let insns = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to insns do
    call i (if i land 1 = 0 then Op_class.Add else Op_class.Mul)
  done;
  let inj_wall = Unix.gettimeofday () -. t0 in
  let injector_hook_calls_per_sec = float_of_int insns /. Float.max 1e-9 inj_wall in
  Printf.printf
    "engine throughput: DTA %.2f Mevents/s (%d events / %.2f s), injector %.2f \
     Mcalls/s, characterize %.2f s\n%!"
    (events_per_sec /. 1e6) events dta_wall (injector_hook_calls_per_sec /. 1e6)
    characterize_wall_s;
  { events_per_sec; injector_hook_calls_per_sec; characterize_wall_s;
    campaign_wall_s = nan }

(* ---------- ISS engines: interpreter vs compiled basic blocks ---------- *)

type iss = {
  iss_insns : int; (* instructions retired by one measured run *)
  interp_wall_s : float; (* best-of-3 wall per run *)
  compiled_wall_s : float;
  interp_insns_per_sec : float;
  compiled_insns_per_sec : float;
  iss_speedup : float;
}

(* The same fault-free kernel run on the reference interpreter
   ([Cpu.run_reference], a cold private state per run) and the
   production engine ([Bench.run_fault_free] on [Cpu.run]), timed —
   real retired-instruction throughput, unlike the injector-hook rate
   above (which times only the fault model's per-operation math). The
   full stats records and outputs must be equal: the compiled engine is
   cycle-for-cycle bit-identical by contract, so any divergence here is
   a hard failure, not a measurement artifact. Wall times are
   best-of-3 over rep blocks sized to ~20 M instructions so a stray
   scheduler hiccup cannot flip the smoke gate. The upfront compact
   matters in the full run: the bechamel suite leaves a large dead
   major heap behind, and the compiled engine (which allocates at
   block-compile time, unlike the allocation-free interpreter) would
   otherwise absorb the entire sweep cost inside its timed window. *)
let iss_compare () =
  let module C = Sfi_sim.Cpu in
  let module B = Sfi_kernels.Bench in
  Gc.compact ();
  let bench = Sfi_kernels.Median.create ~n:129 () in
  let reference () =
    let mem = B.fresh_memory bench in
    let stats = C.run_reference mem ~entry:bench.B.program.Sfi_isa.Program.entry in
    (stats, B.read_output bench mem)
  in
  let compiled () = B.run_fault_free bench in
  let istats, iout = reference () in
  let cstats, cout = compiled () in
  if istats <> cstats || iout <> cout then
    failwith "iss compare: compiled engine diverged from the interpreter";
  let insns = istats.C.instret in
  let reps = max 1 (20_000_000 / max 1 insns) in
  let time run =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore (run () : C.stats * U32.t array)
      done;
      let w = Unix.gettimeofday () -. t0 in
      if w < !best then best := w
    done;
    !best /. float_of_int reps
  in
  let interp_wall_s = time reference in
  let compiled_wall_s = time compiled in
  let per_sec wall = float_of_int insns /. Float.max 1e-9 wall in
  let r =
    {
      iss_insns = insns;
      interp_wall_s;
      compiled_wall_s;
      interp_insns_per_sec = per_sec interp_wall_s;
      compiled_insns_per_sec = per_sec compiled_wall_s;
      iss_speedup = interp_wall_s /. Float.max 1e-9 compiled_wall_s;
    }
  in
  Printf.printf
    "iss compare: %d insns/run x %d reps, interp %.2f Minsns/s, compiled %.2f \
     Minsns/s (%.2fx), stats bit-identical\n%!"
    insns reps
    (r.interp_insns_per_sec /. 1e6)
    (r.compiled_insns_per_sec /. 1e6)
    r.iss_speedup;
  r

(* ---------- characterization kernels: scalar vs packed ---------- *)

type kernels = {
  kernel_cycles : int;
  scalar_wall_s : float;
  packed_wall_s : float;
  scalar_events_per_sec : float;
  packed_events_per_sec : float;
  kernel_speedup : float;
}

(* Merged value of a (possibly sharded) ~det:false work counter. *)
let counter_value name =
  List.fold_left
    (fun acc e ->
      match e.Sfi_obs.entry_value with
      | Sfi_obs.Counter_v v when e.Sfi_obs.entry_name = name -> acc + v
      | _ -> acc)
    0 (Sfi_obs.snapshot ())

(* The same characterization run on the scalar reference kernel and the
   production packed kernel, serially, timed — the packed engine's
   reason to exist in one number. Events/sec counts scalar-equivalent
   gate evaluations: [dta.events] for the scalar kernel,
   [bitsim.lane_events] (trigger-mask population) for the packed one;
   the two totals agree modulo the per-class initial settling that the
   packed engine folds into its functional prime. The cache must be
   off here, or the packed side would load instead of compute. *)
let kernel_compare ~cycles () =
  Sfi_cache.set_dir None;
  (* A clean heap for a clean measurement: the comparison runs before
     the other phases (and compacts away whatever setup allocated), so
     GC pressure from unrelated bench fixtures cannot skew the
     engine-vs-engine ratio. *)
  Gc.compact ();
  let flow = Flow.create () in
  let alu = Flow.alu flow in
  let timed characterize =
    let ev0 = counter_value "dta.events" + counter_value "bitsim.lane_events" in
    let t0 = Unix.gettimeofday () in
    let db = characterize () in
    let wall = Unix.gettimeofday () -. t0 in
    let events = counter_value "dta.events" + counter_value "bitsim.lane_events" - ev0 in
    (db, wall, events)
  in
  let sdb, scalar_wall_s, s_events =
    timed (fun () -> Sfi_oracle.Ref_characterize.run ~cycles ~vdd:0.7 alu)
  in
  let pdb, packed_wall_s, p_events =
    timed (fun () ->
        Sfi_timing.Characterize.run ~cycles ~spec:(Spec.with_jobs 1 Spec.default) ~vdd:0.7
          alu)
  in
  if Marshal.to_string sdb [] <> Marshal.to_string pdb [] then
    failwith "kernel compare: packed database differs from scalar";
  let per_sec ev wall = float_of_int ev /. Float.max 1e-9 wall in
  let r =
    {
      kernel_cycles = cycles;
      scalar_wall_s;
      packed_wall_s;
      scalar_events_per_sec = per_sec s_events scalar_wall_s;
      packed_events_per_sec = per_sec p_events packed_wall_s;
      kernel_speedup = scalar_wall_s /. Float.max 1e-9 packed_wall_s;
    }
  in
  Printf.printf
    "kernel compare: %d cycles/class, scalar %.2f s (%.2f Mevents/s), packed %.2f s \
     (%.2f Mevents/s), %.2fx, databases bit-identical\n%!"
    cycles scalar_wall_s
    (r.scalar_events_per_sec /. 1e6)
    packed_wall_s
    (r.packed_events_per_sec /. 1e6)
    r.kernel_speedup;
  r

(* ---------- parallel smoke: serial vs pooled sweep ---------- *)

type smoke = {
  smoke_points : int;
  smoke_trials : int;
  smoke_jobs : int;
  serial_wall_s : float;
  parallel_wall_s : float;
}

(* Bit-identity through the versioned codec: the sfi-point/1 writer
   round-trips doubles exactly (nan as null), so equal strings mean equal
   points — one comparison shared with the golden tests instead of a
   hand-maintained field list. *)
let points_equal a b =
  let render pts =
    Sfi_fi.Campaign.Point_json.to_string (Sfi_fi.Campaign.Point_json.of_sweep pts)
  in
  render a = render b

(* Deterministic obs fingerprint of a region: counters and histograms are
   cumulative, so subtract the before-snapshot name by name. Spans and
   ~det:false metrics are excluded, same as [Sfi_obs.det_signature]. *)
let det_obs_delta before after =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e -> Hashtbl.replace tbl e.Sfi_obs.entry_name e.Sfi_obs.entry_value)
    before;
  List.filter_map
    (fun e ->
      if not e.Sfi_obs.entry_det then None
      else
        let prev = Hashtbl.find_opt tbl e.Sfi_obs.entry_name in
        match (e.Sfi_obs.entry_value, prev) with
        | Sfi_obs.Counter_v v, Some (Sfi_obs.Counter_v v0) ->
          Some (e.Sfi_obs.entry_name, [ v - v0 ])
        | Sfi_obs.Counter_v v, _ -> Some (e.Sfi_obs.entry_name, [ v ])
        | Sfi_obs.Hist_v h, prev ->
          let c0, s0, b0 =
            match prev with
            | Some (Sfi_obs.Hist_v h0) -> (h0.count, h0.sum, h0.buckets)
            | _ -> (0, 0, [])
          in
          let pairs =
            h.buckets
            |> List.map (fun (b, c) ->
                   (b, c - Option.value ~default:0 (List.assoc_opt b b0)))
            |> List.filter (fun (_, c) -> c <> 0)
            |> List.concat_map (fun (b, c) -> [ b; c ])
          in
          Some (e.Sfi_obs.entry_name, (h.count - c0) :: (h.sum - s0) :: pairs)
        | Sfi_obs.Span_v _, _ -> None)
    after

(* One fast model-C sweep run twice — jobs = 1 then jobs = default — to
   measure the pool's wall-time gain and assert the determinism contract
   end to end. *)
let parallel_smoke () =
  let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 400 } () in
  let bench = Sfi_kernels.Median.create ~n:17 () in
  let fsta = Flow.sta_limit_mhz flow ~vdd:0.7 in
  let model = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let freqs = List.map (fun r -> fsta *. r) [ 1.02; 1.10; 1.18; 1.26 ] in
  let trials = 8 in
  let run jobs =
    let spec =
      Sfi_fi.Campaign.Spec.(default |> with_trials trials |> with_jobs jobs)
    in
    let t0 = Unix.gettimeofday () in
    let pts = Sfi_fi.Campaign.run_sweep spec ~bench ~model ~freqs_mhz:freqs in
    (pts, Unix.gettimeofday () -. t0)
  in
  ignore (run 1) (* warm the reference-cycle cache out of the timed region *);
  let obs_start = Sfi_obs.snapshot () in
  let serial_pts, serial_wall_s = run 1 in
  let obs_mid = Sfi_obs.snapshot () in
  let serial_obs = det_obs_delta obs_start obs_mid in
  let jobs = Pool.default_jobs () in
  let parallel_pts, parallel_wall_s = run jobs in
  let parallel_obs = det_obs_delta obs_mid (Sfi_obs.snapshot ()) in
  if not (points_equal serial_pts parallel_pts) then
    failwith "parallel smoke: jobs=1 and jobs=N produced different points";
  if Sfi_obs.enabled () && serial_obs <> parallel_obs then
    failwith "parallel smoke: obs det counters diverged between jobs=1 and jobs=N";
  Printf.printf
    "parallel smoke: %d points x %d trials, serial %.2f s, %d job(s) %.2f s (%.2fx), \
     results bit-identical\n%!"
    (List.length freqs) trials serial_wall_s jobs parallel_wall_s
    (serial_wall_s /. Float.max 1e-9 parallel_wall_s);
  {
    smoke_points = List.length freqs;
    smoke_trials = trials;
    smoke_jobs = jobs;
    serial_wall_s;
    parallel_wall_s;
  }

(* ---------- adaptive vs fixed: trial counts and wall-time savings ---------- *)

type adaptive_cmp = {
  cmp_points : int;
  cmp_ci_target : float;
  fixed_trials_total : int;
  adaptive_trials_total : int;
  fixed_wall_s : float;
  adaptive_wall_s : float;
  max_rate_dev : float;  (* max |correct_rate_adaptive - correct_rate_fixed| *)
}

(* The tentpole's payoff, measured: a fixed-count sweep against the
   adaptive engine with the same ceiling and ci_target 0.05 over a grid
   spanning the safe region, the transition and deep failure. Points
   whose Wilson interval tightens early (the extremes) stop before the
   ceiling; the transition escalates to it. The recorded rate deviation
   bounds the accuracy cost of stopping early. *)
let adaptive_vs_fixed () =
  let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 400 } () in
  let bench = Sfi_kernels.Median.create ~n:17 () in
  let fsta = Flow.sta_limit_mhz flow ~vdd:0.7 in
  let model = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let freqs = List.map (fun r -> fsta *. r) [ 0.95; 1.05; 1.12; 1.20; 1.30 ] in
  let ceiling = 64 and ci_target = 0.05 in
  let module Spec = Sfi_fi.Campaign.Spec in
  let fixed_spec = Spec.with_trials ceiling Spec.default in
  let adaptive_spec =
    Spec.with_adaptive ~batch:16 ~max_trials:ceiling ~ci_target Spec.default
  in
  ignore (Sfi_fi.Campaign.reference_cycles bench) (* warm, out of the timed region *);
  let run spec =
    let t0 = Unix.gettimeofday () in
    let pts = Sfi_fi.Campaign.run_sweep spec ~bench ~model ~freqs_mhz:freqs in
    (pts, Unix.gettimeofday () -. t0)
  in
  let fixed_pts, fixed_wall_s = run fixed_spec in
  let adaptive_pts, adaptive_wall_s = run adaptive_spec in
  let total pts =
    List.fold_left (fun acc (p : Sfi_fi.Campaign.point) -> acc + p.Sfi_fi.Campaign.trials) 0 pts
  in
  let max_rate_dev =
    List.fold_left2
      (fun acc (f : Sfi_fi.Campaign.point) (a : Sfi_fi.Campaign.point) ->
        Float.max acc
          (Float.abs (f.Sfi_fi.Campaign.correct_rate -. a.Sfi_fi.Campaign.correct_rate)))
      0. fixed_pts adaptive_pts
  in
  let r =
    {
      cmp_points = List.length freqs;
      cmp_ci_target = ci_target;
      fixed_trials_total = total fixed_pts;
      adaptive_trials_total = total adaptive_pts;
      fixed_wall_s;
      adaptive_wall_s;
      max_rate_dev;
    }
  in
  Printf.printf
    "adaptive vs fixed: %d points, fixed %d trials %.2f s, adaptive %d trials %.2f s \
     (%.0f%% of the trials, %.2fx wall), max correct-rate deviation %.3f\n%!"
    r.cmp_points r.fixed_trials_total fixed_wall_s r.adaptive_trials_total
    adaptive_wall_s
    (100. *. float_of_int r.adaptive_trials_total /. float_of_int (max 1 r.fixed_trials_total))
    (fixed_wall_s /. Float.max 1e-9 adaptive_wall_s)
    r.max_rate_dev;
  r

(* ---------- fast-forward vs full replay ---------- *)

type ff_cmp = {
  ff_trials : int;
  ff_freq_mhz : float;
  ff_elided : int;
  ff_restores : int;
  full_wall_s : float;
  ff_wall_s : float;
}

(* The snapshot fast-forward payoff, measured where it matters: a
   model-C k-means point just past the provable no-fault region, where
   most trials are fault-free and full replay burns its time proving
   that one ISS run at a time. The campaign's analytic first-fault
   sampler elides those trials outright; the rest restore a snapshot
   and simulate only the suffix. The full-replay side is the test
   oracle's reference point ([Sfi_oracle.Ref_campaign]). Bit-identity
   is asserted through the same sfi-point/1 rendering the golden tests
   use; recording and reference-cycle costs are warmed out of the timed
   region (they are one-time and cached). *)
let fastforward_compare () =
  let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 400 } () in
  let bench =
    match Sfi_kernels.Registry.by_name "kmeans" with
    | Some b -> b
    | None -> failwith "fastforward compare: kmeans not in registry"
  in
  let fsta = Flow.sta_limit_mhz flow ~vdd:0.7 in
  let model = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let ref_cycles = Sfi_fi.Campaign.reference_cycles bench in
  (* warm the snapshot trace out of the timed region (one-time, cached) *)
  (match
     Sfi_fi.Fastforward.trace_for ~bench
       ~stride:(Sfi_fi.Fastforward.stride_for ~ref_cycles)
   with
  | Some _ -> ()
  | None -> failwith "fastforward compare: kmeans reference run did not exit");
  (* The rare-fault operating point: just past the injector's provable
     no-fault boundary, which bisection pins to a fraction of a MHz.
     kmeans fires tens of thousands of hooks per run, so even here only
     ~3 in 4 trials stay fault-free — any higher and nearly every trial
     faults, erasing the regime this comparison is about. *)
  let freq_mhz =
    let cannot f =
      Sfi_fi.Injector.cannot_inject
        (Sfi_fi.Injector.create ~count_obs:false ~model ~freq_mhz:f
           ~rng:(Sfi_util.Rng.of_int 1) ())
    in
    let lo = ref (fsta *. 0.9) and hi = ref (fsta *. 1.1) in
    for _ = 1 to 40 do
      let mid = 0.5 *. (!lo +. !hi) in
      if cannot mid then lo := mid else hi := mid
    done;
    !hi *. 1.0002
  in
  let trials = 24 in
  let module Spec = Sfi_fi.Campaign.Spec in
  (* One worker on both sides: this compares elision against full
     replay, which the reference runs serially, and domain-scheduling
     overhead on small hosts would only add noise (the pool has its own
     smoke). *)
  let spec = Spec.(default |> with_trials trials |> with_seed 2 |> with_jobs 1) in
  let run f =
    let t0 = Unix.gettimeofday () in
    let p = f () in
    (p, Unix.gettimeofday () -. t0)
  in
  (* Best-of-3 walls, like the ISS compare: runs are deterministic, so
     any rep disagreeing is a hard failure and the work counters divide
     exactly by the rep count. *)
  Gc.compact ();
  let reps = 3 in
  let best f =
    let p = ref None and best = ref infinity in
    for _ = 1 to reps do
      let q, w = run f in
      (match !p with
      | None -> p := Some q
      | Some p0 ->
        if not (points_equal [ p0 ] [ q ]) then
          failwith "fastforward compare: repeated run diverged");
      if w < !best then best := w
    done;
    (Option.get !p, !best)
  in
  let c_elided = Sfi_obs.Counter.make ~det:false "fastforward.trials_elided" in
  let c_restores = Sfi_obs.Counter.make ~det:false "fastforward.restores" in
  let e0 = Sfi_obs.Counter.value c_elided in
  let r0 = Sfi_obs.Counter.value c_restores in
  let p_full, full_wall_s =
    best (fun () -> Sfi_oracle.Ref_campaign.run ~trials ~seed:2 ~bench ~model ~freq_mhz)
  in
  let p_ff, ff_wall_s = best (fun () -> Sfi_fi.Campaign.run spec ~bench ~model ~freq_mhz) in
  if not (points_equal [ p_full ] [ p_ff ]) then
    failwith "fastforward compare: fast-forwarded point differs from full replay";
  let r =
    {
      ff_trials = trials;
      ff_freq_mhz = freq_mhz;
      ff_elided = (Sfi_obs.Counter.value c_elided - e0) / reps;
      ff_restores = (Sfi_obs.Counter.value c_restores - r0) / reps;
      full_wall_s;
      ff_wall_s;
    }
  in
  Printf.printf
    "fastforward compare: kmeans x %d trials at %.0f MHz, full replay %.2f s, \
     fast-forward %.2f s (%.2fx; %d elided, %d suffix restores), results \
     bit-identical\n%!"
    r.ff_trials r.ff_freq_mhz full_wall_s ff_wall_s
    (full_wall_s /. Float.max 1e-9 ff_wall_s)
    r.ff_elided r.ff_restores;
  r

(* ---------- cache round-trip: cold vs warm characterization ---------- *)

type cache_rt = {
  cache_entries : int;
  cold_wall_s : float;
  warm_wall_s : float;
}

(* Cold-vs-warm wall time of the persistent characterization cache: two
   identical flows time [Flow.char_db] against an empty and then a
   populated cache directory. The warm run must load instead of
   recompute — a collapse of the speedup here means the content
   fingerprint went unstable between identical runs. *)
let cache_roundtrip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sfi-bench-cache.%d" (Unix.getpid ()))
  in
  Sfi_cache.set_dir (Some dir);
  let time_char () =
    (* A fresh flow each time: the in-memory memo must not serve the
       warm run — only the disk store may. *)
    let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 1500 } () in
    let t0 = Unix.gettimeofday () in
    ignore (Flow.char_db flow ~vdd:0.7);
    Unix.gettimeofday () -. t0
  in
  let cold_wall_s = time_char () in
  let warm_wall_s = time_char () in
  let cache_entries = List.length (Sfi_cache.scan ~dir) in
  ignore (Sfi_cache.prune ~all:true ~dir () : int);
  (try Unix.rmdir dir with Unix.Unix_error _ -> () | Sys_error _ -> ());
  Sfi_cache.set_dir None;
  Printf.printf
    "cache roundtrip: cold %.2f s, warm %.2f s (%.1fx), %d entr%s\n%!"
    cold_wall_s warm_wall_s
    (cold_wall_s /. Float.max 1e-9 warm_wall_s)
    cache_entries
    (if cache_entries = 1 then "y" else "ies");
  { cache_entries; cold_wall_s; warm_wall_s }

(* ---------- BENCH.json ---------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_bench_json ~path ~scale_label ~experiments ~bechamel ~smoke ~perf ~cache
    ~adaptive ~kernels ~iss ~fastforward =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"sfi-bench/8\",\n";
  add "  \"generated_unix\": %.0f,\n" (Unix.time ());
  add "  \"jobs\": %d,\n" (Pool.default_jobs ());
  add "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  add "  \"scale\": \"%s\",\n" (json_escape scale_label);
  (* Full observability snapshot (schema sfi-obs/1 entries) so the
     trajectory tracker can diff work counts, not just wall times. *)
  add "  \"obs\": %s,\n" (Sfi_obs.Json.to_string (Sfi_obs.json_of_snapshot ()));
  add "  \"experiments\": [";
  List.iteri
    (fun i (id, dt) ->
      add "%s\n    {\"id\": \"%s\", \"wall_s\": %.3f}" (if i = 0 then "" else ",")
        (json_escape id) dt)
    experiments;
  add "%s],\n" (if experiments = [] then "" else "\n  ");
  add "  \"bechamel_ns_per_run\": [";
  List.iteri
    (fun i (name, ns) ->
      add "%s\n    {\"name\": \"%s\", \"ns\": %.1f}" (if i = 0 then "" else ",")
        (json_escape name) ns)
    bechamel;
  add "%s],\n" (if bechamel = [] then "" else "\n  ");
  (match perf with
  | None -> add "  \"perf\": null,\n"
  | Some p ->
    (* sfi-bench/7: the old, misleadingly named "insns_per_sec" (it
       timed injector hook calls, not retired instructions) is now
       "injector_hook_calls_per_sec"; real ISS throughput lives in the
       "iss" object below. *)
    add
      "  \"perf\": {\"events_per_sec\": %.0f, \"injector_hook_calls_per_sec\": %.0f, \
       \"characterize_wall_s\": %.3f, \"campaign_wall_s\": %.3f},\n"
      p.events_per_sec p.injector_hook_calls_per_sec p.characterize_wall_s
      p.campaign_wall_s);
  (match iss with
  | None -> add "  \"iss\": null,\n"
  | Some i ->
    add
      "  \"iss\": {\"insns_per_run\": %d, \"interp_wall_s\": %.6f, \
       \"compiled_wall_s\": %.6f, \"interp_insns_per_sec\": %.0f, \
       \"compiled_insns_per_sec\": %.0f, \"speedup\": %.2f, \"identical_stats\": true},\n"
      i.iss_insns i.interp_wall_s i.compiled_wall_s i.interp_insns_per_sec
      i.compiled_insns_per_sec i.iss_speedup);
  (match cache with
  | None -> add "  \"cache\": null,\n"
  | Some c ->
    add
      "  \"cache\": {\"entries\": %d, \"cold_wall_s\": %.3f, \"warm_wall_s\": %.3f, \
       \"speedup\": %.2f},\n"
      c.cache_entries c.cold_wall_s c.warm_wall_s
      (c.cold_wall_s /. Float.max 1e-9 c.warm_wall_s));
  (match kernels with
  | None -> add "  \"kernels\": null,\n"
  | Some k ->
    add
      "  \"kernels\": {\"cycles\": %d, \"scalar_wall_s\": %.3f, \"packed_wall_s\": %.3f, \
       \"scalar_events_per_sec\": %.0f, \"packed_events_per_sec\": %.0f, \
       \"speedup\": %.2f, \"identical_db\": true},\n"
      k.kernel_cycles k.scalar_wall_s k.packed_wall_s k.scalar_events_per_sec
      k.packed_events_per_sec k.kernel_speedup);
  (match adaptive with
  | None -> add "  \"adaptive\": null,\n"
  | Some a ->
    add
      "  \"adaptive\": {\"points\": %d, \"ci_target\": %.3f, \"fixed_trials\": %d, \
       \"adaptive_trials\": %d, \"trials_ratio\": %.3f, \"fixed_wall_s\": %.3f, \
       \"adaptive_wall_s\": %.3f, \"wall_speedup\": %.2f, \"max_rate_dev\": %.4f},\n"
      a.cmp_points a.cmp_ci_target a.fixed_trials_total a.adaptive_trials_total
      (float_of_int a.adaptive_trials_total
      /. Float.max 1. (float_of_int a.fixed_trials_total))
      a.fixed_wall_s a.adaptive_wall_s
      (a.fixed_wall_s /. Float.max 1e-9 a.adaptive_wall_s)
      a.max_rate_dev);
  (* sfi-bench/8: the fast-forward comparison object *)
  (match fastforward with
  | None -> add "  \"fastforward\": null,\n"
  | Some (f : ff_cmp) ->
    add
      "  \"fastforward\": {\"bench\": \"kmeans\", \"trials\": %d, \"freq_mhz\": %.1f, \
       \"elided\": %d, \"restores\": %d, \"full_wall_s\": %.3f, \
       \"fastforward_wall_s\": %.3f, \"speedup\": %.2f, \"identical_results\": true},\n"
      f.ff_trials f.ff_freq_mhz f.ff_elided f.ff_restores f.full_wall_s f.ff_wall_s
      (f.full_wall_s /. Float.max 1e-9 f.ff_wall_s));
  (match smoke with
  | None -> add "  \"parallel_smoke\": null\n"
  | Some s ->
    add
      "  \"parallel_smoke\": {\"points\": %d, \"trials\": %d, \"jobs\": %d, \
       \"serial_wall_s\": %.3f, \"parallel_wall_s\": %.3f, \"speedup\": %.2f, \
       \"identical_results\": true}\n"
      s.smoke_points s.smoke_trials s.smoke_jobs s.serial_wall_s s.parallel_wall_s
      (s.serial_wall_s /. Float.max 1e-9 s.parallel_wall_s));
  add "}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "wrote %s\n%!" path

(* ---------- driver ---------- *)

let () =
  (* --jobs N / --jobs=N is consumed here; everything else flows through. *)
  let rec parse = function
    | [] -> []
    | ("--jobs" | "-j") :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 ->
        Pool.set_default_jobs n;
        parse rest
      | _ ->
        prerr_endline "bad --jobs value";
        exit 2)
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" -> (
      match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
      | Some n when n >= 1 ->
        Pool.set_default_jobs n;
        parse rest
      | _ ->
        prerr_endline "bad --jobs value";
        exit 2)
    | a :: rest -> a :: parse rest
  in
  let args = parse (List.tl (Array.to_list Sys.argv)) in
  let paper = List.mem "--paper" args in
  let bechamel_only = List.mem "--bechamel" args in
  let skip_bechamel = List.mem "--no-bechamel" args in
  let smoke_only = List.mem "--smoke" args in
  let ids = List.filter (fun a -> String.length a > 0 && a.[0] <> '-') args in
  (* The whole harness runs instrumented: work counters cost a few int
     increments per hot loop and feed the "obs" object in BENCH.json. *)
  Sfi_obs.set_enabled true;
  Printf.printf "parallel engine: %d job(s) (of %d recommended domains)\n%!"
    (Pool.default_jobs ())
    (Domain.recommended_domain_count ());
  if smoke_only then begin
    let kernels = kernel_compare ~cycles:600 () in
    if kernels.kernel_speedup < 1.0 then
      failwith "kernel compare: packed engine slower than scalar";
    let iss = iss_compare () in
    if iss.iss_speedup < 1.0 then
      failwith "iss compare: compiled engine slower than the interpreter";
    let smoke = parallel_smoke () in
    let adaptive = adaptive_vs_fixed () in
    let ff = fastforward_compare () in
    if ff.full_wall_s /. Float.max 1e-9 ff.ff_wall_s < 2.0 then
      failwith "fastforward compare: less than 2x faster than full replay";
    write_bench_json ~path:"BENCH.json" ~scale_label:"smoke" ~experiments:[] ~bechamel:[]
      ~smoke:(Some smoke) ~perf:None ~cache:None ~adaptive:(Some adaptive)
      ~kernels:(Some kernels) ~iss:(Some iss) ~fastforward:(Some ff)
  end
  else begin
    let scale = if paper then Experiments.paper else Experiments.fast in
    (* Kernels first: the scalar-vs-packed ratio is measured on a fresh
       process heap, before experiment fixtures accumulate. *)
    let kernels = if bechamel_only then None else Some (kernel_compare ~cycles:2000 ()) in
    let timings =
      if bechamel_only then []
      else begin
        Printf.printf "regenerating %s at %s scale\n\n%!"
          (if ids = [] then "all tables and figures" else String.concat ", " ids)
          scale.Experiments.label;
        let ctx = Experiments.make_ctx scale in
        Experiments.run ctx ids
      end
    in
    let bech_rows = if not skip_bechamel then bechamel_suite () else [] in
    let perf = if bechamel_only then None else Some (perf_metrics ()) in
    let iss = if bechamel_only then None else Some (iss_compare ()) in
    let cache = if bechamel_only then None else Some (cache_roundtrip ()) in
    let smoke = parallel_smoke () in
    let adaptive = if bechamel_only then None else Some (adaptive_vs_fixed ()) in
    let fastforward = if bechamel_only then None else Some (fastforward_compare ()) in
    (match perf with
    | Some p -> p.campaign_wall_s <- smoke.serial_wall_s
    | None -> ());
    write_bench_json ~path:"BENCH.json"
      ~scale_label:(if bechamel_only then "bechamel" else scale.Experiments.label)
      ~experiments:timings ~bechamel:bech_rows ~smoke:(Some smoke) ~perf ~cache ~adaptive
      ~kernels ~iss ~fastforward
  end
