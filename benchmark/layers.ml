(* Per-layer probes of the traced run. Each metric is timed around the
   benchmark's own calls into one layer's public functions, on the
   workload's own kernels, campaign points and models; counts are deltas
   of the library's obs counters. README.md maps each metric to the
   end-to-end metric it should move. *)

open Sfi_util
open Sfi_kernels
open Sfi_fi
open Sfi_core

type params = {
  trial_samples : int;  (* >= 110: the p90 then has ten samples beyond it *)
  hook_calls : int;  (* per injector hook loop *)
  best_of : int;
  iss_insns : int;  (* instructions per ISS timing block *)
  ff_probes : int;
  ff_trials : int;
  overhead_calls : int;
  cache_reps : int;
  create_reps : int;
}

let full =
  {
    trial_samples = 110;
    hook_calls = 200_000;
    best_of = 5;
    iss_insns = 2_000_000;
    ff_probes = 200;
    ff_trials = 24;
    overhead_calls = 21;
    cache_reps = 3;
    create_reps = 1000;
  }

let smoke =
  {
    trial_samples = 4;
    hook_calls = 2_000;
    best_of = 1;
    iss_insns = 10_000;
    ff_probes = 4;
    ff_trials = 2;
    overhead_calls = 2;
    cache_reps = 1;
    create_reps = 10;
  }

type metric = { name : string; value : float; unit : string }

let counter name = Sfi_obs.Counter.make ~det:false name

let count name = float_of_int (Sfi_obs.Counter.value (counter name))

let attempts () =
  List.fold_left
    (fun acc c -> acc + Sfi_obs.Counter.value (counter ("injector.attempts." ^ Op_class.name c)))
    0 Op_class.all

(* [n] items spread evenly over [xs], wrapping around when [n] exceeds
   its length. *)
let spread n xs =
  let a = Array.of_list xs in
  let len = Array.length a in
  List.init n (fun i -> a.(i * len / n))

let sum = List.fold_left ( +. ) 0.

(* ---------- cpu ---------- *)

type iss = { run_s : float; instret : int; class_counts : int array }

(* Fault-free runs, best of [best_of] blocks sized to about [iss_insns]
   retired instructions so short kernels are not timed one run at a time. *)
let iss p (b : Bench.t) =
  let stats, _ = Bench.run_fault_free b in
  let instret = stats.Sfi_sim.Cpu.instret in
  let runs = max 1 (p.iss_insns / max 1 instret) in
  let block () =
    snd
      (Measure.timed (fun () ->
           Spans.time "cpu.run_fault_free" (fun () ->
               for _ = 1 to runs do
                 ignore (Bench.run_fault_free b : Sfi_sim.Cpu.stats * U32.t array)
               done)))
  in
  let best = Measure.minimum (List.init p.best_of (fun _ -> block ())) in
  { run_s = best /. float_of_int runs; instret; class_counts = stats.Sfi_sim.Cpu.class_counts }

(* ---------- injector ---------- *)

let class_of_index =
  let a = Array.make Op_class.count Op_class.Add in
  List.iter (fun c -> a.(Op_class.index c) <- c) Op_class.all;
  a

(* Nanoseconds per hook call, replaying a kernel's ALU class mix with
   random operands against one injector. *)
let hook_ns ~calls ~model ~freq_mhz ~mix =
  let rng = Rng.of_int 0x600C in
  let total = Array.fold_left ( + ) 0 mix in
  let pick () =
    let r = Rng.int rng (max 1 total) in
    let rec go i acc =
      if i >= Array.length mix - 1 || r < acc + mix.(i) then i else go (i + 1) (acc + mix.(i))
    in
    class_of_index.(go 0 0)
  in
  let cls = Array.init calls (fun _ -> pick ()) in
  let a = Array.init calls (fun _ -> Rng.bits32 rng) in
  let b = Array.init calls (fun _ -> Rng.bits32 rng) in
  let result = Array.init calls (fun i -> Op_class.apply cls.(i) a.(i) b.(i)) in
  let inj = Injector.create ~count_obs:false ~model ~freq_mhz ~rng:(Rng.of_int 0x1A) () in
  let hook = Injector.hook inj in
  let (), t =
    Measure.timed (fun () ->
        Spans.time "injector.hook_loop" (fun () ->
            for i = 0 to calls - 1 do
              ignore (hook ~cycle:i ~cls:cls.(i) ~a:a.(i) ~b:b.(i) ~result:result.(i) : U32.t)
            done))
  in
  1e9 *. t /. float_of_int calls

(* ---------- cache ---------- *)

(* Direct store/load of the 0.7 V database into a private directory.
   Returns the metrics and whether every load gave the stored value. *)
let cache p flow =
  let db = Flow.char_db flow ~vdd:0.7 in
  let dir = Scratch.fresh_dir "layers" in
  Sfi_cache.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Sfi_cache.set_dir None;
      Scratch.remove dir)
    (fun () ->
      let namespace = "benchmark-chardb" and key = "0" in
      let stores =
        List.init p.cache_reps (fun _ ->
            snd
              (Measure.timed (fun () ->
                   Spans.time "cache.store" (fun () -> Sfi_cache.store ~namespace ~key db))))
      in
      let loads =
        List.init p.cache_reps (fun _ ->
            Measure.timed (fun () ->
                Spans.time "cache.load" (fun () ->
                    (Sfi_cache.load ~namespace ~key : Sfi_timing.Characterize.t option))))
      in
      let digest = Workloads.db_digest db in
      let ok =
        List.for_all
          (fun (l, _) -> match l with Some d -> Workloads.db_digest d = digest | None -> false)
          loads
      in
      let bytes = List.fold_left (fun acc e -> acc + e.Sfi_cache.bytes) 0 (Sfi_cache.scan ~dir) in
      ( [
          { name = "cache.store_ms"; value = 1000. *. Measure.median stores; unit = "ms" };
          {
            name = "cache.load_ms";
            value = 1000. *. Measure.median (List.map snd loads);
            unit = "ms";
          };
          { name = "cache.entry_mb"; value = float_of_int bytes /. (1024. *. 1024.); unit = "MB" };
        ],
        ok ))

(* ---------- fastforward ---------- *)

let fastforward p ~seed (probe : Workloads.probe) =
  let traces =
    List.map
      (fun (b : Bench.t) ->
        let ref_cycles = Campaign.reference_cycles b in
        let stride = Fastforward.stride_for ~ref_cycles in
        let trace, t =
          Measure.timed (fun () ->
              Spans.time "fastforward.trace" (fun () -> Fastforward.trace_for ~bench:b ~stride))
        in
        match trace with
        | Some tr -> (b.Bench.name, (tr, t, ref_cycles, stride))
        | None -> failwith ("fastforward: reference run of " ^ b.Bench.name ^ " did not exit"))
      probe.kernels
  in
  let trace_of (b : Bench.t) = List.assoc b.Bench.name traces in
  let unsupported0 = count "fastforward.model_unsupported" in
  List.iter
    (fun (b, model, _) ->
      let _, _, _, stride = trace_of b in
      ignore (Fastforward.trace_for_model ~bench:b ~model ~stride : Fastforward.trace option))
    probe.points;
  let unsupported = count "fastforward.model_unsupported" -. unsupported0 in
  let ff_points =
    List.sort_uniq compare
      (List.map (fun ((b : Bench.t), _, f) -> (b.Bench.name, f)) probe.points)
  in
  let bench_of name = List.find (fun (b : Bench.t) -> b.Bench.name = name) probe.kernels in
  let probes =
    List.mapi
      (fun i (name, freq_mhz) ->
        let trace, _, _, _ = trace_of (bench_of name) in
        Measure.timed (fun () ->
            Spans.time "fastforward.first_fault" (fun () ->
                Fastforward.first_fault ~model:probe.ff_model ~freq_mhz ~trace
                  ~rng:(Rng.of_int ((seed * 100_003) + i)))))
      (spread p.ff_probes ff_points)
  in
  let trials =
    List.mapi
      (fun i (name, freq_mhz) ->
        let b = bench_of name in
        let trace, _, ref_cycles, _ = trace_of b in
        snd
          (Measure.timed (fun () ->
               Spans.time "fastforward.run_trial" (fun () ->
                   Fastforward.run_trial ~bench:b ~model:probe.ff_model ~freq_mhz
                     ~budget:((3 * ref_cycles) + 65536) ~trace
                     ~rng:(Rng.of_int ((seed * 200_003) + i))))))
      (spread p.ff_trials ff_points)
  in
  let n = float_of_int (List.length probes) in
  [
    {
      name = "fastforward.trace_ms";
      value = 1000. *. Measure.mean (List.map (fun (_, (_, t, _, _)) -> t) traces);
      unit = "ms";
    };
    { name = "fastforward.probe_us"; value = 1e6 *. sum (List.map snd probes) /. n; unit = "us" };
    {
      name = "fastforward.elided_frac";
      value = float_of_int (List.length (List.filter (fun (r, _) -> r = None) probes)) /. n;
      unit = "fraction";
    };
    { name = "fastforward.trial_ms"; value = 1000. *. Measure.mean trials; unit = "ms" };
    { name = "fastforward.model_unsupported"; value = unsupported; unit = "count" };
  ]

(* ---------- campaign ---------- *)

(* Single trials spread over the workload's points, with the fault-free
   run time and the injector's share of each. *)
let campaign p ~seed ~(iss_of : Bench.t -> iss) (probe : Workloads.probe) =
  let blocks0 = count "cpu.blocks_compiled" and hits0 = count "cpu.block_hits" in
  let shortcuts () = count "injector.skip_table_hits" +. count "injector.class_cannot_hits" in
  let short0 = shortcuts () and att0 = attempts () in
  let samples =
    List.mapi
      (fun i ((b : Bench.t), model, freq_mhz) ->
        let a0 = attempts () in
        let _, t =
          Measure.timed (fun () ->
              Spans.time "campaign.run_trial" (fun () ->
                  Campaign.run_trial ~bench:b ~model ~freq_mhz ~seed:((seed * 300_007) + i)))
        in
        (b, model, freq_mhz, t, attempts () - a0))
      (spread p.trial_samples probe.points)
  in
  let n = float_of_int (List.length samples) in
  let hook_calls = attempts () - att0 in
  let shortcut = shortcuts () -. short0 in
  let blocks = count "cpu.blocks_compiled" -. blocks0 and hits = count "cpu.block_hits" -. hits0 in
  let times = List.map (fun (_, _, _, t, _) -> t) samples in
  let total = sum times in
  (* Nanoseconds per hook at each sampled point, replaying its kernel's
     class mix: the injector's share of the trial time. *)
  let ns_memo = Hashtbl.create 16 in
  let ns_at (b : Bench.t) model freq_mhz =
    let key = (b.Bench.name, Model.to_string model, freq_mhz) in
    match Hashtbl.find_opt ns_memo key with
    | Some ns -> ns
    | None ->
      let ns =
        hook_ns ~calls:(max 1 (p.hook_calls / 10)) ~model ~freq_mhz ~mix:(iss_of b).class_counts
      in
      Hashtbl.replace ns_memo key ns;
      ns
  in
  let injector_s =
    sum
      (List.map
         (fun (b, model, f, _, calls) -> 1e-9 *. float_of_int calls *. ns_at b model f)
         samples)
  in
  let cpu_s = sum (List.map (fun (b, _, _, _, _) -> (iss_of b).run_s) samples) in
  (* One-trial run_detailed against a bare run_trial at the first point,
     which is fault-free (or deterministic) in every workload, so both
     calls simulate the same run. *)
  let b, model, freq_mhz = List.hd probe.points in
  let spec1 = Workloads.spec ~trials:1 ~seed ~jobs:2 in
  (* Calls alternate, and the median is taken over the pairs'
     differences, so drift in the host's speed cancels. *)
  let overhead =
    Measure.median
      (List.init p.overhead_calls (fun i ->
           let _, detailed =
             Measure.timed (fun () ->
                 Spans.time "campaign.run_detailed" (fun () ->
                     ignore (Campaign.run_detailed spec1 ~bench:b ~model ~freq_mhz)))
           in
           let _, bare =
             Measure.timed (fun () ->
                 Spans.time "campaign.run_trial" (fun () ->
                     ignore
                       (Campaign.run_trial ~bench:b ~model ~freq_mhz ~seed:i : Campaign.trial)))
           in
           detailed -. bare))
  in
  let ref_spans = Spans.named "campaign.reference_cycles" in
  [
    { name = "campaign.trial_samples"; value = n; unit = "count" };
    { name = "campaign.trial_ms.p50"; value = 1000. *. Measure.median times; unit = "ms" };
    { name = "campaign.trial_ms.p90"; value = 1000. *. Measure.percentile times 0.9; unit = "ms" };
    { name = "campaign.call_overhead_us"; value = 1e6 *. overhead; unit = "us" };
    {
      name = "campaign.reference_cycles_ms";
      value =
        1000. *. sum (List.map Spans.duration ref_spans)
        /. float_of_int (List.length probe.kernels);
      unit = "ms";
    };
    { name = "campaign.cpu_frac"; value = cpu_s /. total; unit = "fraction" };
    { name = "campaign.injector_frac"; value = injector_s /. total; unit = "fraction" };
    { name = "cpu.blocks_compiled_per_trial"; value = blocks /. n; unit = "count" };
    { name = "cpu.block_hits_per_trial"; value = hits /. n; unit = "count" };
    {
      name = "injector.shortcut_frac";
      value = shortcut /. float_of_int (max 1 hook_calls);
      unit = "fraction";
    };
  ]

(* ---------- all layers ---------- *)

(* Returns the metrics and whether every cache load gave back the stored
   database. Obs counters must be enabled and the characterization
   counters must hold only the traced set-up and rep. *)
let run p ~seed (probe : Workloads.probe) =
  let flow = probe.flow in
  let flow_spans = List.map Spans.duration (Spans.named "flow.create") in
  let char_spans = List.map Spans.duration (Spans.named "characterize.char_db") in
  let n_char = float_of_int (max 1 (List.length char_spans)) in
  let lane_events = count "bitsim.lane_events" in
  let char_metrics =
    [
      { name = "flow.create_s"; value = Measure.median flow_spans; unit = "s" };
      { name = "characterize.wall_s"; value = Measure.median char_spans; unit = "s" };
      {
        name = "characterize.lane_events_per_s";
        value = lane_events /. sum char_spans;
        unit = "1/s";
      };
      {
        name = "characterize.trials";
        value = count "characterize.trials" /. n_char;
        unit = "count";
      };
      { name = "bitsim.lane_events"; value = lane_events /. n_char; unit = "count" };
    ]
  in
  let sta_ms =
    let cfg = Flow.config flow in
    let circuit = (Flow.alu flow).Sfi_netlist.Alu.circuit in
    1000.
    *. Measure.median
         (List.init p.best_of (fun _ ->
              snd
                (Measure.timed (fun () ->
                     Spans.time "sta.analyze" (fun () ->
                         Sfi_timing.Sta.analyze ~lib:cfg.Flow.lib ~vdd_model:cfg.Flow.vdd_model
                           circuit)))))
  in
  let isses = List.map (fun (b : Bench.t) -> (b.Bench.name, iss p b)) probe.kernels in
  let iss_of (b : Bench.t) = List.assoc b.Bench.name isses in
  let minsns =
    float_of_int (List.fold_left (fun acc (_, i) -> acc + i.instret) 0 isses)
    /. sum (List.map (fun (_, i) -> i.run_s) isses)
    /. 1e6
  in
  let mix = (iss_of probe.hook_kernel).class_counts in
  let hook f =
    hook_ns ~calls:p.hook_calls ~model:probe.hook_model ~freq_mhz:(probe.fsta *. f) ~mix
  in
  let hook_nofault = hook 1.0 and hook_fault = hook 1.25 in
  let (), create_t =
    Measure.timed (fun () ->
        Spans.time "injector.create" (fun () ->
            for i = 1 to p.create_reps do
              ignore
                (Injector.create ~count_obs:false ~model:probe.hook_model ~freq_mhz:probe.fsta
                   ~rng:(Rng.of_int i) ()
                  : Injector.t)
            done))
  in
  let models, build_t = Measure.timed probe.build_models in
  let cache_metrics, cache_ok = cache p flow in
  let ff_metrics = fastforward p ~seed probe in
  let campaign_metrics = campaign p ~seed ~iss_of probe in
  ( char_metrics
    @ [
        { name = "sta.analyze_ms"; value = sta_ms; unit = "ms" };
        { name = "cpu.minsns_per_s"; value = minsns; unit = "M/s" };
        { name = "injector.hook_ns.nofault"; value = hook_nofault; unit = "ns" };
        { name = "injector.hook_ns.fault"; value = hook_fault; unit = "ns" };
        {
          name = "injector.create_us";
          value = 1e6 *. create_t /. float_of_int p.create_reps;
          unit = "us";
        };
        {
          name = "model.build_us";
          value = 1e6 *. build_t /. float_of_int (max 1 (List.length models));
          unit = "us";
        };
      ]
    @ cache_metrics @ ff_metrics @ campaign_metrics,
    cache_ok )
