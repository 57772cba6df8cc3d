(* The four workloads. Each is one of the paper's artefacts at a fixed,
   committed scale; README.md says why each was chosen and which layers
   it stresses.

   The seed drives the Monte-Carlo stream each workload is about: the
   campaign root seed of the campaign workloads, the characterization
   seed of fig2-char. Everything else stays as the paper's experiments
   have it: the die (the hardware), the kernels' input data, and the
   set-up's characterization seed, which fixes the timing model the
   campaigns sample. Varying those changes how much work a rep is —
   other input data change the programs' lengths by up to a fifth, and
   another characterization moves the no-fault boundary, so a grid
   point runs one trial instead of all — which would swamp the
   regression bounds. *)

open Sfi_util
open Sfi_kernels
open Sfi_fi
open Sfi_core
module Spec = Campaign.Spec

type scale = {
  char_cycles : int;  (* set-up characterization at 0.7 V, cycles per class *)
  fig2_cycles : int;  (* fig2-char characterization, cycles per class *)
  fig2_warm_loads : int;  (* fig2-char warm loads per rep *)
  fig5_step : float;  (* fig5-median grid step, in units of f_STA *)
  fig5_trials : int;
  fig6_step : float;
  fig6_trials : int;
  glitch_offsets : int;  (* attack-aes glitch trigger offsets per drop *)
  attack_trials : int;  (* attack-aes trials per skip/opcode/state instance *)
}

let full =
  {
    char_cycles = 2000;
    fig2_cycles = 1000;
    fig2_warm_loads = 3;
    fig5_step = 0.025;
    fig5_trials = 4;
    fig6_step = 0.0125;
    fig6_trials = 6;
    glitch_offsets = 64;
    attack_trials = 1000;
  }

(* About 1% of the work: enough to drive every code path of the harness. *)
let smoke =
  {
    char_cycles = 63;
    fig2_cycles = 63;
    fig2_warm_loads = 1;
    fig5_step = 0.325;
    fig5_trials = 1;
    fig6_step = 0.05;
    fig6_trials = 1;
    glitch_offsets = 1;
    attack_trials = 4;
  }

let vdd = 0.7

let sigma = 0.010

(* One timed repetition. [rows] renders the results outside the timed
   region: each row is a label and the canonical rendering of each of
   its units (a campaign point, an attack instance's outcome counts, a
   characterization database's digest). *)
type result = {
  wall_s : float;
  warm_s : float list;  (* fig2-char only: the warm half, once per warm load *)
  trials : int;  (* Monte-Carlo trials requested *)
  rows : unit -> (string * string list) list;
}

(* What the per-layer probes run on: the workload's own kernels, campaign
   points and models. *)
type probe = {
  flow : Flow.t;
  kernels : Bench.t list;
  points : (Bench.t * Model.t * float) list;
  hook_model : Model.t;  (* the model the injector hook loop drives *)
  hook_kernel : Bench.t;  (* whose instruction-class mix it replays *)
  ff_model : Model.t;  (* model C: the model fast-forward supports *)
  fsta : float;
  build_models : unit -> Model.t list;  (* the workload's model instances, rebuilt *)
}

type prepared = {
  run : jobs:int -> result;
  recompute : int -> string;
      (* unit [i] of the rows flattened in order, recomputed at jobs = 1 *)
  warm_load : (unit -> unit -> bool) option;
      (* A fresh flow loading the set-up's databases from the configured
         cache; the returned check, run outside the timed region, tells
         whether they equal the set-up's own. [None] when the set-up
         characterizes nothing. *)
  probe : unit -> probe;
}

type t = {
  name : string;
  agree : (string * string) list;  (* row labels that must render identically *)
  setup : scale -> seed:int -> prepared;
}

(* ---------- calls into the layers, each under its own span ---------- *)

let flow_config ?(char_seed = Flow.default_config.Flow.char_seed) ~cycles () =
  { Flow.default_config with Flow.char_cycles = cycles; char_seed }

let create_flow config = Spans.time "flow.create" (fun () -> Flow.create ~config ())

let char_db flow ~vdd = Spans.time "characterize.char_db" (fun () -> Flow.char_db flow ~vdd)

let kernel name =
  let b =
    Spans.time "bench.build" (fun () ->
        match Registry.by_name name with
        | Some b -> b
        | None -> failwith ("unknown kernel " ^ name))
  in
  ignore (Spans.time "bench.validate" (fun () -> Bench.validate b) : Sfi_sim.Cpu.stats);
  b

let reference_cycles b =
  Spans.time "campaign.reference_cycles" (fun () -> Campaign.reference_cycles b)

let model_by_key ?params flow ~key ~sigma =
  Spans.time "model.build" (fun () ->
      match Flow.model_by_key ?params flow ~key ~vdd ~sigma with
      | Ok m -> m
      | Error e -> failwith ("model " ^ key ^ ": " ^ e))

let model_c flow = model_by_key flow ~key:"C" ~sigma

let spec ~trials ~seed ~jobs =
  Spec.(default |> with_trials trials |> with_seed seed |> with_jobs jobs)

let render_point p = Campaign.Point_json.(to_string (of_point p))

let db_digest db = Digest.to_hex (Digest.string (Marshal.to_string db []))

(* [fsta * (lo + i * step)] for every i with the ratio inside [lo, hi]. *)
let grid ~fsta ~lo ~hi ~step =
  let n = int_of_float (Float.round ((hi -. lo) /. step)) in
  List.init (n + 1) (fun i -> fsta *. (lo +. (float_of_int i *. step)))

(* A fresh flow loading the 0.7 V database from the configured cache. *)
let warm_load config flow () =
  let f =
    Spans.time "cache.warm_load" (fun () ->
        let f = create_flow config in
        ignore
          (Spans.time "cache.load_db" (fun () -> Flow.char_db f ~vdd) : Sfi_timing.Characterize.t);
        f)
  in
  fun () -> db_digest (Flow.char_db f ~vdd) = db_digest (Flow.char_db flow ~vdd)

let timed_result ~trials ~warm_s ~rows f =
  let r, wall_s = Measure.timed f in
  { wall_s; warm_s; trials; rows = (fun () -> rows r) }

(* ---------- campaign sweeps: fig5-median and fig6-onset ---------- *)

let sweep_setup ~kernels ~trials ~lo ~hi ~step scale ~seed =
  let config = flow_config ~cycles:scale.char_cycles () in
  let flow = create_flow config in
  ignore (char_db flow ~vdd : Sfi_timing.Characterize.t);
  let model = model_c flow in
  let fsta = Flow.sta_limit_mhz flow ~vdd in
  let freqs = grid ~fsta ~lo ~hi ~step in
  let benches = List.map kernel kernels in
  List.iter (fun b -> ignore (reference_cycles b : int)) benches;
  let units = Array.of_list (List.concat_map (fun b -> List.map (fun f -> (b, f)) freqs) benches) in
  let run ~jobs =
    let spec = spec ~trials ~seed ~jobs in
    timed_result ~trials:(Array.length units * trials) ~warm_s:[]
      ~rows:(List.map (fun ((b : Bench.t), pts) -> (b.Bench.name, List.map render_point pts)))
      (fun () ->
        List.map
          (fun b ->
            ( b,
              Spans.time "campaign.run_sweep" (fun () ->
                  Campaign.run_sweep spec ~bench:b ~model ~freqs_mhz:freqs) ))
          benches)
  in
  let recompute i =
    let b, freq_mhz = units.(i) in
    render_point (Campaign.run (spec ~trials ~seed ~jobs:1) ~bench:b ~model ~freq_mhz)
  in
  let probe () =
    {
      flow;
      kernels = benches;
      points = Array.to_list (Array.map (fun (b, f) -> (b, model, f)) units);
      hook_model = model;
      hook_kernel = List.hd benches;
      ff_model = model;
      fsta;
      build_models = (fun () -> [ model_c flow ]);
    }
  in
  { run; recompute; warm_load = Some (warm_load config flow); probe }

(* Paper Fig. 5: median, model C, 0.7 V, sigma 10 mV, 0.80-1.45 x f_STA. *)
let fig5_median =
  {
    name = "fig5-median";
    agree = [];
    setup =
      (fun scale ->
        sweep_setup ~kernels:[ "median" ] ~trials:scale.fig5_trials ~lo:0.80 ~hi:1.45
          ~step:scale.fig5_step scale);
  }

let fig6_kernels = [ "mat_mult_8bit"; "mat_mult_16bit"; "kmeans"; "dijkstra" ]

(* Paper Fig. 6 kernels around the onset: 0.95-1.05 x f_STA. *)
let fig6_onset =
  {
    name = "fig6-onset";
    agree = [];
    setup =
      (fun scale ->
        sweep_setup ~kernels:fig6_kernels ~trials:scale.fig6_trials ~lo:0.95 ~hi:1.05
          ~step:scale.fig6_step scale);
  }

(* ---------- attack-aes ---------- *)

(* Outcome class of one attack trial, as the attack experiment scores it:
   correct, detected, attack success, silent data corruption, crash. *)
let outcome (tr : Campaign.trial) =
  if not tr.Campaign.finished then 4
  else if tr.Campaign.error = Aes.class_correct then 0
  else if tr.Campaign.error = Aes.class_detected then 1
  else if tr.Campaign.error = Aes.class_attack_success then 2
  else 3

let outcome_counts trials =
  let counts = Array.make 5 0 in
  Array.iter (fun tr -> counts.(outcome tr) <- counts.(outcome tr) + 1) trials;
  String.concat "," (Array.to_list (Array.map string_of_int counts))

(* Consecutive units with the same row label form one row. *)
let group_rows units =
  List.fold_right
    (fun (label, unit) acc ->
      match acc with
      | (l, us) :: rest when l = label -> (l, unit :: us) :: rest
      | _ -> (label, [ unit ]) :: acc)
    units []

let attack_aes =
  let setup scale ~seed =
    let config = flow_config ~cycles:scale.char_cycles () in
    let flow = create_flow config in
    ignore (char_db flow ~vdd : Sfi_timing.Characterize.t);
    let b = kernel "aes" in
    let ref_cycles = reference_cycles b in
    let fsta = Flow.sta_limit_mhz flow ~vdd in
    let freq = fsta *. 0.98 in
    let open Sfi_obs.Json in
    let lo, hi = Aes.data_word_range b in
    (* (row label, model params, trials per instance); the glitch row scans
       the trigger offset across the whole run, as the attack experiment
       does, one deterministic trial per window. *)
    let specs =
      List.concat_map
        (fun drop ->
          List.init scale.glitch_offsets (fun i ->
              ( "glitch",
                ( "glitch",
                  [
                    ("start", Int (ref_cycles * (2 + (6 * i)) / (6 * scale.glitch_offsets)));
                    ("len", Int 2);
                    ("drop_mv", Float drop);
                  ] ),
                1 )))
        [ 40.; 60.; 80. ]
      @ List.concat_map
          (fun key ->
            List.map
              (fun p ->
                (Printf.sprintf "%s p=%g" key p, (key, [ ("p", Float p) ]), scale.attack_trials))
              [ 1e-4; 5e-4; 2e-3 ])
          [ "skip"; "opcode" ]
      @ List.map
          (fun flips ->
            ( Printf.sprintf "state flips=%d" flips,
              ("state", [ ("flips", Int flips); ("word_lo", Int lo); ("word_hi", Int hi) ]),
              scale.attack_trials ))
          [ 1; 2; 4 ]
    in
    let build () =
      List.map
        (fun (_, (key, params), _) -> model_by_key ~params flow ~key ~sigma:0.)
        specs
    in
    let instances =
      Array.of_list (List.map2 (fun (label, _, trials) m -> (label, m, trials)) specs (build ()))
    in
    let run_instance ~jobs (_, model, trials) =
      snd (Campaign.run_detailed (spec ~trials ~seed ~jobs) ~bench:b ~model ~freq_mhz:freq)
    in
    let run ~jobs =
      timed_result
        ~trials:(Array.fold_left (fun acc (_, _, n) -> acc + n) 0 instances)
        ~warm_s:[]
        ~rows:(fun outs ->
          group_rows
            (Array.to_list
               (Array.map2 (fun (label, _, _) trs -> (label, outcome_counts trs)) instances outs)))
        (fun () ->
          Array.map
            (fun inst -> Spans.time "campaign.run_detailed" (fun () -> run_instance ~jobs inst))
            instances)
    in
    let recompute i = outcome_counts (run_instance ~jobs:1 instances.(i)) in
    let probe () =
      let skip =
        match Array.find_opt (fun (label, _, _) -> label = "skip p=0.0005") instances with
        | Some (_, m, _) -> m
        | None -> failwith "attack-aes: no skip instance"
      in
      {
        flow;
        kernels = [ b ];
        points = Array.to_list (Array.map (fun (_, m, _) -> (b, m, freq)) instances);
        hook_model = skip;
        hook_kernel = b;
        ff_model = model_c flow;
        fsta;
        build_models = build;
      }
    in
    { run; recompute; warm_load = Some (warm_load config flow); probe }
  in
  { name = "attack-aes"; agree = []; setup }

(* ---------- fig2-char ---------- *)

let fig2_vdds = [ 0.7; 0.8 ]

(* Paper Fig. 2: characterization at 0.7 V and 0.8 V. The cold half
   characterizes on a fresh flow and stores into a fresh private cache
   directory; the warm half loads both databases back, each time on
   another fresh flow. The set-up is [Flow.create] alone. *)
let fig2_char =
  let setup scale ~seed =
    let config = flow_config ~char_seed:seed ~cycles:scale.fig2_cycles () in
    let setup_flow = create_flow config in
    let last_flow = ref setup_flow in
    let run ~jobs:_ =
      let dir = Scratch.fresh_dir "cache" in
      Sfi_cache.set_dir (Some dir);
      Fun.protect
        ~finally:(fun () ->
          Sfi_cache.set_dir None;
          Scratch.remove dir)
        (fun () ->
          let (cold_flow, cold), wall_s =
            Measure.timed (fun () ->
                let f = create_flow config in
                (f, List.map (fun vdd -> char_db f ~vdd) fig2_vdds))
          in
          let warm_load () =
            Measure.timed (fun () ->
                Spans.time "cache.warm_load" (fun () ->
                    let f = create_flow config in
                    List.map
                      (fun vdd -> Spans.time "cache.load_db" (fun () -> Flow.char_db f ~vdd))
                      fig2_vdds))
          in
          let loads = List.init scale.fig2_warm_loads (fun _ -> warm_load ()) in
          let warm = fst (List.hd loads) in
          last_flow := cold_flow;
          let label half vdd = Printf.sprintf "%s-%.1f" half vdd in
          {
            wall_s;
            warm_s = List.map snd loads;
            trials = List.length Op_class.all * config.Flow.char_cycles * List.length fig2_vdds;
            rows =
              (fun () ->
                List.map2 (fun vdd db -> (label "cold" vdd, [ db_digest db ])) fig2_vdds cold
                @ List.map2 (fun vdd db -> (label "warm" vdd, [ db_digest db ])) fig2_vdds warm);
          })
    in
    (* Units are cold-0.7, cold-0.8, warm-0.7, warm-0.8; each warm unit must
       equal the cold one of its voltage. *)
    let recompute i =
      let vdd = List.nth fig2_vdds (i mod List.length fig2_vdds) in
      db_digest
        (Sfi_timing.Characterize.run ~cycles:config.Flow.char_cycles ~seed:config.Flow.char_seed
           ~vdd_model:config.Flow.vdd_model ~lib:config.Flow.lib
           ~spec:(Spec.with_jobs 1 Spec.default) ~vdd (Flow.alu setup_flow))
    in
    (* fig2-char runs no campaign; the layer probes use the median kernel
       with model C (from the last cold database) over the onset grid. *)
    let probe () =
      let flow = !last_flow in
      let model = model_c flow in
      let b = kernel "median" in
      ignore (reference_cycles b : int);
      let fsta = Flow.sta_limit_mhz flow ~vdd in
      {
        flow;
        kernels = [ b ];
        points =
          List.map (fun f -> (b, model, f)) (grid ~fsta ~lo:0.95 ~hi:1.05 ~step:scale.fig6_step);
        hook_model = model;
        hook_kernel = b;
        ff_model = model;
        fsta;
        build_models = (fun () -> [ model_c flow ]);
      }
    in
    { run; recompute; warm_load = None; probe }
  in
  {
    name = "fig2-char";
    agree =
      List.map (fun v -> (Printf.sprintf "warm-%.1f" v, Printf.sprintf "cold-%.1f" v)) fig2_vdds;
    setup;
  }

let all = [ fig5_median; fig6_onset; attack_aes; fig2_char ]

let find name = List.find_opt (fun w -> w.name = name) all
