open Sfi_util
open Sfi_timing
open Sfi_kernels
open Sfi_fi

type scale = {
  label : string;
  trials_fig5 : int;
  trials : int;
  char_cycles : int;
  fig4_ops : int;
  dense_step : float;
}

let fast =
  {
    label = "fast";
    trials_fig5 = 30;
    trials = 25;
    char_cycles = 2000;
    fig4_ops = 8000;
    dense_step = 0.025;
  }

let paper =
  {
    label = "paper";
    trials_fig5 = 200;
    trials = 100;
    char_cycles = 8000;
    fig4_ops = 40000;
    dense_step = 0.008;
  }

type ctx = {
  scale : scale;
  flow : Flow.t;
  benches : Bench.t list;
  spec : Campaign.Spec.t;
}

let make_ctx ?(spec = Campaign.Spec.default) scale =
  let config = { Flow.default_config with Flow.char_cycles = scale.char_cycles } in
  {
    scale;
    flow = Flow.create ~config ();
    benches = Registry.paper_suite ();
    spec = Campaign.Spec.validate spec;
  }

(* Each figure scales the user's policy template to its own nominal
   trial count: a Fixed spec runs exactly that count (bit-identical to
   the historic per-figure defaults), an Adaptive one keeps its batch
   size and precision target but may stop earlier or escalate to at
   least that count. *)
let spec_for ctx nominal = Campaign.Spec.with_nominal_trials nominal ctx.spec

let flow ctx = ctx.flow

let bench ctx name =
  List.find (fun (b : Bench.t) -> b.Bench.name = name) ctx.benches

(* ---------- small helpers ---------- *)

let grid lo hi step =
  let rec go acc f = if f > hi +. 1e-9 then List.rev acc else go (f :: acc) (f +. step) in
  go [] lo

let transition_grid ~fsta ~rel_lo ~rel_hi ~rel_step =
  grid (fsta *. rel_lo) (fsta *. rel_hi) (fsta *. rel_step)

let fmt_mhz f = Printf.sprintf "%.1f" f

let fmt_rate = Table.fmt_pct ~decimals:1

let fmt_fi p =
  if not p.Campaign.any_fault_possible then "n/a"
  else Printf.sprintf "%.3g" p.Campaign.fi_per_kcycle

let point_rows points =
  List.map
    (fun (p : Campaign.point) ->
      [
        fmt_mhz p.Campaign.freq_mhz;
        fmt_rate p.Campaign.finished_rate;
        fmt_rate p.Campaign.correct_rate;
        fmt_fi p;
        Table.fmt_float ~decimals:3 p.Campaign.mean_error;
      ])
    points

let sweep_table ~title ~metric_name points =
  let t =
    Table.create ~title
      [
        ("f [MHz]", Table.Right);
        ("finished", Table.Right);
        ("correct", Table.Right);
        ("FI/kCycle", Table.Right);
        (metric_name, Table.Right);
      ]
  in
  Table.add_rows t (point_rows points);
  Table.print t

let poff_summary ~fsta points =
  match Campaign.point_of_first_failure points with
  | None -> Printf.printf "PoFF: none within the swept range (STA limit %.1f MHz)\n" fsta
  | Some poff ->
    Printf.printf "STA limit %.1f MHz; PoFF %.1f MHz (gain %+.1f%%)\n" fsta poff
      (100. *. (poff -. fsta) /. fsta)

(* ---------- Table 1 ---------- *)

(* Cycle counts the paper reports, for side-by-side comparison. *)
let paper_cycles = function
  | "median" -> "216 k"
  | "mat_mult_8bit" | "mat_mult_16bit" -> "60 k"
  | "kmeans" -> "351 k"
  | "dijkstra" -> "984 k"
  | _ -> "-"

let table1 ctx =
  let t =
    Table.create ~title:"Table 1: benchmark properties (measured on this ISS)"
      [
        ("benchmark", Table.Left);
        ("type", Table.Left);
        ("compute", Table.Right);
        ("control", Table.Right);
        ("size", Table.Left);
        ("cycles", Table.Right);
        ("paper", Table.Right);
        ("IPC", Table.Right);
        ("ALU%", Table.Right);
        ("ctrl%", Table.Right);
        ("mem%", Table.Right);
        ("output error", Table.Left);
      ]
  in
  List.iter
    (fun (b : Bench.t) ->
      let stats = Bench.validate b in
      let ki = float_of_int (max 1 stats.Sfi_sim.Cpu.kernel_instret) in
      let pct v = Printf.sprintf "%.0f%%" (100. *. float_of_int v /. ki) in
      Table.add_row t
        [
          b.Bench.name;
          b.Bench.bench_type;
          b.Bench.compute_rating;
          b.Bench.control_rating;
          b.Bench.size_desc;
          Printf.sprintf "%d k" (stats.Sfi_sim.Cpu.cycles / 1000);
          paper_cycles b.Bench.name;
          Printf.sprintf "%.2f" (Sfi_sim.Cpu.ipc stats);
          pct stats.Sfi_sim.Cpu.alu_retired;
          pct stats.Sfi_sim.Cpu.control_retired;
          pct stats.Sfi_sim.Cpu.memory_retired;
          b.Bench.metric_name;
        ])
    ctx.benches;
  Table.print t

(* ---------- Table 2 ---------- *)

let table2 _ctx =
  let t =
    Table.create ~title:"Table 2: timing error models & features"
      [
        ("model", Table.Left);
        ("fault injection technique", Table.Left);
        ("timing data", Table.Left);
        ("multi-Vdd", Table.Left);
        ("Vdd noise", Table.Left);
        ("gate-level aware", Table.Left);
        ("instruction aware", Table.Left);
      ]
  in
  List.iter
    (fun (name, (f : Model.features)) ->
      let yn b = if b then "yes" else "no" in
      Table.add_row t
        [
          name;
          f.Model.technique;
          f.Model.timing_data;
          yn f.Model.multi_vdd;
          yn f.Model.vdd_noise;
          f.Model.gate_level_aware;
          yn f.Model.instruction_aware;
        ])
    (Model.feature_rows ());
  Table.print t

(* ---------- Fig 1: models B and B+ on the median benchmark ---------- *)

let fig1 ctx =
  let b = bench ctx "median" in
  let vdd = 0.7 in
  let fsta = Flow.sta_limit_mhz ctx.flow ~vdd in
  let panel title model center =
    (* The B/B+ cliffs are narrow: sweep +-4 MHz around the first-fault
       frequency in 0.5 MHz steps, as the paper's Fig. 1 does. *)
    let freqs = grid (center -. 3.) (center +. 4.) 0.5 in
    let points =
      Campaign.run_sweep (spec_for ctx ctx.scale.trials) ~bench:b ~model ~freqs_mhz:freqs
    in
    sweep_table ~title ~metric_name:"rel.err" points
  in
  let vm = (Flow.config ctx.flow).Flow.vdd_model in
  let onset sigma = fsta /. Vdd_model.scale_factor vm ~vdd ~noise:(-2. *. sigma) in
  Printf.printf "STA limit at %.1f V: %.1f MHz\n\n" vdd fsta;
  panel "(a) model B, sigma = 0 mV" (Flow.model_b ctx.flow ~vdd) fsta;
  panel "(b) model B+, sigma = 10 mV" (Flow.model_bplus ctx.flow ~vdd ~sigma:0.010)
    (onset 0.010);
  panel "(c) model B+, sigma = 25 mV" (Flow.model_bplus ctx.flow ~vdd ~sigma:0.025)
    (onset 0.025);
  Printf.printf
    "first-fault frequencies: B %.1f MHz; B+ s10 %.1f MHz; B+ s25 %.1f MHz (paper: 707 / 661 / 588)\n"
    fsta (onset 0.010) (onset 0.025)

(* ---------- Fig 2: DTA timing-error CDFs ---------- *)

let fig2 ctx =
  let freqs = grid 800. 2000. (if ctx.scale.label = "paper" then 25. else 50.) in
  let t =
    Table.create
      ~title:
        "Fig 2: timing error probability CDFs from DTA (per instruction, endpoint bit, Vdd)"
      ([ ("f [MHz]", Table.Right) ]
      @ List.concat_map
          (fun (cls, b) ->
            List.map
              (fun v -> (Printf.sprintf "%s b%d@%.1fV" (Op_class.name cls) b v, Table.Right))
              [ 0.7; 0.8 ])
          [ (Op_class.Mul, 3); (Op_class.Mul, 24); (Op_class.Add, 3); (Op_class.Add, 24) ])
  in
  let dbs = [ (0.7, Flow.char_db ctx.flow ~vdd:0.7); (0.8, Flow.char_db ctx.flow ~vdd:0.8) ] in
  List.iter
    (fun f ->
      let period = Sta.period_ps_of_mhz f in
      let cells =
        List.concat_map
          (fun (cls, bit) ->
            List.map
              (fun (_, db) ->
                Table.fmt_pct ~decimals:1
                  (Characterize.error_probability db cls ~endpoint:bit ~period_ps:period
                     ~scale:1.0))
              dbs)
          [ (Op_class.Mul, 3); (Op_class.Mul, 24); (Op_class.Add, 3); (Op_class.Add, 24) ]
      in
      Table.add_row t (fmt_mhz f :: cells))
    freqs;
  Table.print t

(* ---------- Fig 3: the simulation flow itself ---------- *)

let fig3 ctx = print_string (Flow.summary ctx.flow)

(* ---------- Fig 4: MSE vs frequency for individual instructions ---------- *)

let fig4 ctx =
  let vdd = 0.7 and sigma = 0.010 in
  let configs =
    [
      ("l.add 16-bit", Op_class.Add, Characterize.uniform16, 0xFFFF);
      ("l.add 32-bit", Op_class.Add, Characterize.uniform32, U32.mask);
      ("l.mul 32-bit", Op_class.Mul, Characterize.uniform16, U32.mask);
    ]
  in
  let freqs = grid 640. 1250. (if ctx.scale.label = "paper" then 10. else 20.) in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Fig 4: MSE vs frequency, Vdd = %.1f V, sigma = %.0f mV (model C)"
           vdd (1000. *. sigma))
      (("f [MHz]", Table.Right)
      :: List.map (fun (name, _, _, _) -> (name, Table.Right)) configs)
  in
  let mse_of (_, cls, profile, result_mask) f =
    let model = Flow.model_c ~profile ctx.flow ~vdd ~sigma () in
    let rng = Rng.of_int (0xF14 + int_of_float f) in
    let injector = Injector.create ~model ~freq_mhz:f ~rng () in
    if Injector.cannot_inject injector then 0.
    else begin
      let hook = Injector.hook injector in
      let gen = Rng.split rng in
      let acc = ref 0. in
      let n = ctx.scale.fig4_ops in
      for i = 1 to n do
        let a, b = profile.Characterize.sample gen in
        let clean = Op_class.apply cls a b in
        let mask = hook ~cycle:i ~cls ~a ~b ~result:clean in
        let faulty = clean lxor mask in
        let d =
          float_of_int (faulty land result_mask) -. float_of_int (clean land result_mask)
        in
        acc := !acc +. (d *. d)
      done;
      !acc /. float_of_int n
    end
  in
  let poffs = List.map (fun _ -> ref None) configs in
  List.iter
    (fun f ->
      let cells =
        List.map2
          (fun cfg poff ->
            let mse = mse_of cfg f in
            if mse > 0. && !poff = None then poff := Some f;
            if mse = 0. then "0" else Table.fmt_sci mse)
          configs poffs
      in
      Table.add_row t (fmt_mhz f :: cells))
    freqs;
  Table.print t;
  List.iter2
    (fun (name, _, _, _) poff ->
      match !poff with
      | Some f -> Printf.printf "first errors for %s at ~%.0f MHz\n" name f
      | None -> Printf.printf "no errors observed for %s in the swept range\n" name)
    configs poffs;
  print_endline "(paper: 877 / 746 / 685 MHz)"

(* ---------- Fig 5: median benchmark across Vdd and noise ---------- *)

let fig5 ctx =
  let b = bench ctx "median" in
  List.iter
    (fun vdd ->
      let fsta = Flow.sta_limit_mhz ctx.flow ~vdd in
      List.iter
        (fun sigma ->
          let model = Flow.model_c ctx.flow ~vdd ~sigma () in
          let freqs =
            transition_grid ~fsta ~rel_lo:0.80 ~rel_hi:1.45 ~rel_step:ctx.scale.dense_step
          in
          let points =
            Campaign.run_sweep (spec_for ctx ctx.scale.trials_fig5) ~bench:b ~model
              ~freqs_mhz:freqs
          in
          sweep_table
            ~title:
              (Printf.sprintf "Fig 5: median, Vdd = %.1f V, noise sigma = %.0f mV (model C)"
                 vdd (1000. *. sigma))
            ~metric_name:"rel.err%" points;
          poff_summary ~fsta points;
          print_newline ())
        [ 0.0; 0.010; 0.025 ])
    [ 0.7; 0.8 ]

(* ---------- Fig 6: benchmark comparison at 0.7 V, sigma 10 mV ---------- *)

let fig6 ctx =
  let vdd = 0.7 and sigma = 0.010 in
  let fsta = Flow.sta_limit_mhz ctx.flow ~vdd in
  let vm = (Flow.config ctx.flow).Flow.vdd_model in
  let bplus_cliff = fsta /. Vdd_model.scale_factor vm ~vdd ~noise:(-2. *. sigma) in
  let model = Flow.model_c ctx.flow ~vdd ~sigma () in
  List.iter
    (fun name ->
      let b = bench ctx name in
      let freqs =
        transition_grid ~fsta ~rel_lo:0.90 ~rel_hi:1.35 ~rel_step:ctx.scale.dense_step
      in
      let points =
        Campaign.run_sweep (spec_for ctx ctx.scale.trials) ~bench:b ~model ~freqs_mhz:freqs
      in
      sweep_table
        ~title:(Printf.sprintf "Fig 6: %s, Vdd = %.1f V, sigma = %.0f mV (model C)" name vdd
                  (1000. *. sigma))
        ~metric_name:b.Bench.metric_name points;
      poff_summary ~fsta points;
      Printf.printf "model B+ hard-failure threshold: %.1f MHz (all benchmarks alike)\n\n"
        bplus_cliff)
    [ "mat_mult_8bit"; "mat_mult_16bit"; "kmeans"; "dijkstra" ]

(* ---------- Fig 7: error vs power trade-off ---------- *)

let fig7 ctx =
  let b = bench ctx "median" in
  let freq = Flow.sta_limit_mhz ctx.flow ~vdd:0.7 in
  let step = if ctx.scale.label = "paper" then 0.0025 else 0.005 in
  let vdds =
    grid 0.625 0.700 step |> List.rev (* descend from nominal *)
  in
  List.iter
    (fun sigma ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Fig 7: median @ %.0f MHz, voltage-overscaling, sigma = %.0f mV (model C)"
               freq (1000. *. sigma))
          [
            ("Vdd [V]", Table.Right);
            ("norm. power", Table.Right);
            ("finished", Table.Right);
            ("correct", Table.Right);
            ("avg rel.err%", Table.Right);
          ]
      in
      let poff = ref None in
      List.iter
        (fun vdd ->
          let model = Flow.model_c ~operating_vdd:vdd ctx.flow ~vdd:0.7 ~sigma () in
          let p = Campaign.run (spec_for ctx ctx.scale.trials) ~bench:b ~model ~freq_mhz:freq in
          if p.Campaign.correct_rate < 1.0 && !poff = None then poff := Some vdd;
          Table.add_row t
            [
              Printf.sprintf "%.4f" vdd;
              Table.fmt_float ~decimals:3 (Power.normalized ~vdd);
              fmt_rate p.Campaign.finished_rate;
              fmt_rate p.Campaign.correct_rate;
              Table.fmt_float ~decimals:2 p.Campaign.mean_error;
            ])
        vdds;
      Table.print t;
      (match !poff with
      | Some v ->
        Printf.printf "PoFF at %.3f V, normalized power %.3f (paper: 0.667 V, 0.93x)\n\n" v
          (Power.normalized ~vdd:v)
      | None -> Printf.printf "no failures down to %.3f V\n\n" (List.nth vdds (List.length vdds - 1))))
    [ 0.0; 0.010; 0.025 ]

(* ---------- ablations and extensions ---------- *)

let ablation_sampling ctx =
  let b = bench ctx "median" in
  let vdd = 0.7 and sigma = 0.010 in
  let fsta = Flow.sta_limit_mhz ctx.flow ~vdd in
  let freqs = transition_grid ~fsta ~rel_lo:0.95 ~rel_hi:1.35 ~rel_step:0.04 in
  let run sampling =
    Campaign.run_sweep (spec_for ctx ctx.scale.trials) ~bench:b
      ~model:(Flow.model_c ~sampling ctx.flow ~vdd ~sigma ())
      ~freqs_mhz:freqs
  in
  let ind = run Model.Independent and corr = run Model.Vector_correlated in
  let t =
    Table.create
      ~title:
        "Ablation: independent vs vector-correlated endpoint sampling (median, 0.7 V, s10)"
      [
        ("f [MHz]", Table.Right);
        ("corr. indep", Table.Right);
        ("corr. vector", Table.Right);
        ("FI/kCyc indep", Table.Right);
        ("FI/kCyc vector", Table.Right);
        ("err% indep", Table.Right);
        ("err% vector", Table.Right);
      ]
  in
  List.iter2
    (fun (i : Campaign.point) (c : Campaign.point) ->
      Table.add_row t
        [
          fmt_mhz i.Campaign.freq_mhz;
          fmt_rate i.Campaign.correct_rate;
          fmt_rate c.Campaign.correct_rate;
          fmt_fi i;
          fmt_fi c;
          Table.fmt_float ~decimals:2 i.Campaign.mean_error;
          Table.fmt_float ~decimals:2 c.Campaign.mean_error;
        ])
    ind corr;
  Table.print t

let class_onsets_table ~title dbs =
  let t =
    Table.create ~title
      (("class", Table.Left)
      :: List.map (fun (label, _) -> (label, Table.Right)) dbs)
  in
  List.iter
    (fun cls ->
      Table.add_row t
        (Op_class.name cls
        :: List.map
             (fun (_, db) ->
               fmt_mhz (Characterize.class_first_failure_mhz db cls ~scale:1.0))
             dbs))
    Op_class.all;
  Table.print t

let ablation_sizing ctx =
  (* Rebuild the flow with slack redistribution disabled to expose what
     the virtual-synthesis compression contributes. *)
  let no_compress =
    List.map (fun t -> { t with Sizing.compression = 0.0 }) Sizing.default_targets
  in
  let config =
    {
      Flow.default_config with
      Flow.char_cycles = min ctx.scale.char_cycles 2000;
      Flow.targets = no_compress;
    }
  in
  let flow_nc = Flow.create ~config () in
  class_onsets_table
    ~title:
      "Ablation: per-class dynamic first-failure frequency [MHz] with and without \
       area-recovery slack redistribution"
    [
      ("sized (default)", Flow.char_db ctx.flow ~vdd:0.7);
      ("no compression", Flow.char_db flow_nc ~vdd:0.7);
    ]

let corners ctx =
  let mk factor =
    let config =
      {
        Flow.default_config with
        Flow.char_cycles = min ctx.scale.char_cycles 2000;
        Flow.corner_factor = factor;
      }
    in
    Flow.create ~config ()
  in
  let slow = mk 1.08 and fastc = mk 0.93 in
  Printf.printf "STA limits [MHz] @0.7V: slow %.1f / typical %.1f / fast %.1f\n"
    (Flow.sta_limit_mhz slow ~vdd:0.7)
    (Flow.sta_limit_mhz ctx.flow ~vdd:0.7)
    (Flow.sta_limit_mhz fastc ~vdd:0.7);
  class_onsets_table
    ~title:"Corners: per-class dynamic first-failure frequency [MHz] @ 0.7 V"
    [
      ("slow (+8%)", Flow.char_db slow ~vdd:0.7);
      ("typical", Flow.char_db ctx.flow ~vdd:0.7);
      ("fast (-7%)", Flow.char_db fastc ~vdd:0.7);
    ]

let model_a_demo ctx =
  (* Model A has no frequency axis at all: show that a fixed bit-flip
     probability produces the same behaviour regardless of the operating
     point — the core criticism of Sec. 3.1. *)
  let b = bench ctx "median" in
  let t =
    Table.create ~title:"Model A: fixed-probability FI is blind to the operating point"
      [
        ("bit-flip prob", Table.Right);
        ("finished", Table.Right);
        ("correct", Table.Right);
        ("FI/kCycle", Table.Right);
        ("rel.err%", Table.Right);
      ]
  in
  List.iter
    (fun prob ->
      let p =
        Campaign.run (spec_for ctx ctx.scale.trials) ~bench:b
          ~model:(Flow.model_a ~bit_flip_prob:prob) ~freq_mhz:707.
      in
      Table.add_row t
        [
          Table.fmt_sci prob;
          fmt_rate p.Campaign.finished_rate;
          fmt_rate p.Campaign.correct_rate;
          fmt_fi p;
          Table.fmt_float ~decimals:2 p.Campaign.mean_error;
        ])
    [ 0.; 1e-8; 1e-7; 1e-6; 1e-5; 1e-4 ];
  Table.print t

let extension_kernels ctx =
  (* Two workloads beyond the paper's set. The instruction-aware model
     predicts crc32 (shift/xor dominated) survives over-scaling further
     than any paper kernel, while fir (streaming MAC) tracks matmul's
     early multiplier-driven failure — class-level timing really does
     translate into application-level resilience ordering. *)
  let vdd = 0.7 and sigma = 0.010 in
  let fsta = Flow.sta_limit_mhz ctx.flow ~vdd in
  let model = Flow.model_c ctx.flow ~vdd ~sigma () in
  List.iter
    (fun (b : Bench.t) ->
      ignore (Bench.validate b);
      let freqs =
        transition_grid ~fsta ~rel_lo:0.92 ~rel_hi:1.45 ~rel_step:ctx.scale.dense_step
      in
      let points =
        Campaign.run_sweep (spec_for ctx ctx.scale.trials) ~bench:b ~model ~freqs_mhz:freqs
      in
      sweep_table
        ~title:
          (Printf.sprintf "Extension kernel %s at %.1f V, sigma %.0f mV (model C)"
             b.Bench.name vdd (1000. *. sigma))
        ~metric_name:b.Bench.metric_name points;
      poff_summary ~fsta points;
      (* Which instruction classes actually carry the faults, probed just
         past the transition onset. *)
      let probe_freq = fsta *. 1.18 in
      let rng = Rng.of_int 4242 in
      let injector = Injector.create ~model ~freq_mhz:probe_freq ~rng () in
      let config =
        {
          Sfi_sim.Cpu.fault_hook = Some (Injector.hook injector);
          Sfi_sim.Cpu.max_cycles = 10_000_000;
        }
      in
      let mem = Bench.fresh_memory b in
      ignore (Sfi_sim.Cpu.run ~config mem ~entry:b.Bench.program.Sfi_isa.Program.entry);
      let by_class = Injector.fault_bits_by_class injector in
      let total = Array.fold_left ( + ) 0 by_class in
      if total > 0 then begin
        Printf.printf "fault class mix at %.0f MHz:" probe_freq;
        List.iter
          (fun cls ->
            let n = by_class.(Op_class.index cls) in
            if n > 0 then
              Printf.printf "  %s %.0f%%" (Op_class.name cls)
                (100. *. float_of_int n /. float_of_int total))
          Op_class.all;
        print_newline ()
      end;
      print_newline ())
    (Registry.extension_suite ())

let attack ctx =
  (* Adversarial campaign on the checksum-guarded AES kernel: every trial
     is classified the way the fault-attack literature scores an attempt
     (correct / detected by a guard / attack success = flag clear with
     exactly one ciphertext word corrupted / silent data corruption /
     crash). The clock stays inside the STA-safe region so the only
     faults are the attack's own. *)
  let b = Aes.create () in
  ignore (Bench.validate b);
  let vdd = 0.7 in
  let fsta = Flow.sta_limit_mhz ctx.flow ~vdd in
  let freq = fsta *. 0.98 in
  let model key params =
    match Flow.model_by_key ~params ctx.flow ~key ~vdd ~sigma:0. with
    | Ok m -> m
    | Error e -> failwith ("attack experiment: " ^ e)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Attack campaign on the guarded AES kernel at %.0f MHz (STA %.0f MHz, %.1f V)"
           freq fsta vdd)
      [
        ("attack", Table.Left);
        ("trials", Table.Right);
        ("correct", Table.Right);
        ("detected", Table.Right);
        ("success", Table.Right);
        ("SDC", Table.Right);
        ("crash", Table.Right);
      ]
  in
  let classify (tr : Campaign.trial) =
    if not tr.Campaign.finished then 4
    else if tr.Campaign.error = Aes.class_correct then 0
    else if tr.Campaign.error = Aes.class_detected then 1
    else if tr.Campaign.error = Aes.class_attack_success then 2
    else 3
  in
  (* Each row pools the trials of one or more model instances — the
     glitch row scans the trigger offset the way a bench attacker does,
     since a given window is deterministic (no RNG draws). *)
  let row ~label ~trials models =
    let counts = Array.make 5 0 in
    let total = ref 0 in
    List.iter
      (fun m ->
        let _, trs =
          Campaign.run_detailed (spec_for ctx trials) ~bench:b ~model:m ~freq_mhz:freq
        in
        Array.iter (fun tr -> counts.(classify tr) <- counts.(classify tr) + 1) trs;
        total := !total + Array.length trs)
      models;
    let pct n = fmt_rate (float_of_int n /. float_of_int (max 1 !total)) in
    Table.add_row t
      [
        label;
        string_of_int !total;
        pct counts.(0);
        pct counts.(1);
        pct counts.(2);
        pct counts.(3);
        pct counts.(4);
      ]
  in
  let open Sfi_obs.Json in
  (* Trigger offsets spanning the whole run — checksum, both encryptions
     and the compare/output tail — like an attacker sweeping the glitch
     delay against a trigger. *)
  let ref_cycles = Campaign.reference_cycles b in
  let scan = 16 in
  let glitch_starts =
    List.init scan (fun i -> ref_cycles * (2 + (6 * i)) / (6 * scan))
  in
  row ~label:"glitch (offset scan)" ~trials:1
    (List.map
       (fun s ->
         model "glitch"
           [ ("start", Int s); ("len", Int 2); ("drop_mv", Float 60.) ])
       glitch_starts);
  row ~label:"skip (p=5e-4)" ~trials:ctx.scale.trials
    [ model "skip" [ ("p", Float 5e-4) ] ];
  row ~label:"opcode (p=5e-4)" ~trials:ctx.scale.trials
    [ model "opcode" [ ("p", Float 5e-4) ] ];
  let lo, hi = Aes.data_word_range b in
  row ~label:"state (2 flips, data)" ~trials:ctx.scale.trials
    [ model "state" [ ("flips", Int 2); ("word_lo", Int lo); ("word_hi", Int hi) ] ];
  Table.print t

let quality_margins ctx =
  (* The paper's conclusion: the tool can "determine the timing margins
     required to achieve a desired quality metric". For each kernel, find
     the highest over-scaled frequency that still keeps the application
     inside a quality envelope. *)
  let vdd = 0.7 and sigma = 0.010 in
  let fsta = Flow.sta_limit_mhz ctx.flow ~vdd in
  let model = Flow.model_c ctx.flow ~vdd ~sigma () in
  let freqs = transition_grid ~fsta ~rel_lo:0.90 ~rel_hi:1.35 ~rel_step:0.02 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Quality margins at %.1f V, sigma %.0f mV: highest frequency meeting each \
            envelope (STA %.0f MHz)"
           vdd (1000. *. sigma) fsta)
      [
        ("benchmark", Table.Left);
        ("always correct", Table.Right);
        ("err <= 1%, finishes", Table.Right);
        ("err <= 10%, finishes", Table.Right);
      ]
  in
  List.iter
    (fun (b : Bench.t) ->
      let points =
        Campaign.run_sweep (spec_for ctx ctx.scale.trials) ~bench:b ~model ~freqs_mhz:freqs
      in
      (* Highest frequency such that every point at or below it satisfies
         the predicate (conservative margin). *)
      let margin pred =
        let rec go best = function
          | [] -> best
          | (p : Campaign.point) :: rest ->
            if pred p then go (Some p.Campaign.freq_mhz) rest else best
        in
        match go None points with
        | None -> "none"
        | Some f -> Printf.sprintf "%.0f MHz (%+.1f%%)" f (100. *. (f -. fsta) /. fsta)
      in
      (* The MSE benchmarks use a relative envelope on their own scale:
         error as a fraction of the fault-saturated plateau is not
         comparable across metrics, so envelopes are % metrics for
         median/kmeans/dijkstra and exactness elsewhere. *)
      let pct_ok limit (p : Campaign.point) =
        p.Campaign.finished_rate >= 0.999
        && (not (Float.is_nan p.Campaign.mean_error))
        && p.Campaign.mean_error <= limit
      in
      let is_pct_metric =
        b.Bench.metric_name <> "mean squared error (MSE)"
      in
      Table.add_row t
        [
          b.Bench.name;
          margin (fun p -> p.Campaign.correct_rate >= 0.999);
          (if is_pct_metric then margin (pct_ok 1.0) else "n/a (MSE metric)");
          (if is_pct_metric then margin (pct_ok 10.0) else "n/a (MSE metric)");
        ])
    ctx.benches;
  Table.print t

let bottlenecks ctx =
  (* The paper's introduction: the tool can "identify and mitigate
     reliability bottlenecks ... (e.g., by pointing out structures that
     lead to timing walls)". Report the per-endpoint onset profile of each
     class and the gate-level critical paths of the slowest endpoints. *)
  let db = Flow.char_db ctx.flow ~vdd:0.7 in
  let setup = db.Characterize.setup_ps in
  let t =
    Table.create
      ~title:
        "Reliability bottlenecks: per-endpoint dynamic onset [MHz] profile per class \
         (wall = endpoints within 5% of the class onset)"
      [
        ("class", Table.Left);
        ("bit0", Table.Right);
        ("bit7", Table.Right);
        ("bit15", Table.Right);
        ("bit23", Table.Right);
        ("bit31", Table.Right);
        ("worst bit", Table.Right);
        ("wall width", Table.Right);
      ]
  in
  List.iter
    (fun cls ->
      let cdb = Characterize.class_db db cls in
      let onset e =
        let mx = Cdf.max_value cdb.Characterize.endpoint_cdfs.(e) in
        if mx <= 0. then infinity else 1e6 /. (mx +. setup)
      in
      let onsets = Array.init 32 onset in
      let worst = ref 0 in
      Array.iteri (fun e f -> if f < onsets.(!worst) then worst := e) onsets;
      let wall =
        Array.fold_left
          (fun acc f -> if f <= onsets.(!worst) *. 1.05 then acc + 1 else acc)
          0 onsets
      in
      let cell e = if onsets.(e) = infinity then "safe" else Printf.sprintf "%.0f" onsets.(e) in
      Table.add_row t
        [
          Op_class.name cls;
          cell 0; cell 7; cell 15; cell 23; cell 31;
          Printf.sprintf "b%d (%.0f)" !worst onsets.(!worst);
          Printf.sprintf "%d/32" wall;
        ])
    Op_class.all;
  Table.print t;
  print_endline "critical paths of the three slowest endpoints (STA, 0.7 V):";
  List.iter
    (fun p -> print_string (Path_report.pp p))
    (Path_report.worst_paths ~count:3 (Flow.alu ctx.flow).Sfi_netlist.Alu.circuit)

(* ---------- registry ---------- *)

(* The one list of experiments: [all], [run_one] and [run] read it, so
   an id cannot validate without running something. *)
let experiments =
  [
    ("table1", "benchmark properties (measured)", table1);
    ("table2", "timing error models & features", table2);
    ("fig1", "models B / B+ cliffs on the median benchmark", fig1);
    ("fig2", "DTA timing-error probability CDFs", fig2);
    ("fig3", "the realized simulation flow", fig3);
    ("fig4", "MSE vs frequency for add16/add32/mul32 (model C)", fig4);
    ("fig5", "median benchmark across Vdd and noise (model C)", fig5);
    ("fig6", "benchmark comparison at 0.7 V, sigma 10 mV (model C)", fig6);
    ("fig7", "error vs core-power trade-off (model C)", fig7);
    ("model-a", "fixed-probability FI baseline (Sec. 3.1)", model_a_demo);
    ("ablation-sampling", "independent vs vector-correlated sampling", ablation_sampling);
    ("ablation-sizing", "effect of slack redistribution on class onsets", ablation_sizing);
    ("corners", "process/temperature corner characterizations", corners);
    ("quality-margins", "timing margins required per quality envelope", quality_margins);
    ("bottlenecks", "reliability bottlenecks: onset profiles & critical paths", bottlenecks);
    ("extension-kernels", "crc32 and fir beyond the paper's benchmark set", extension_kernels);
    ("attack", "adversarial fault-attack campaign on the guarded AES kernel", attack);
  ]

let all = List.map (fun (id, doc, _) -> (id, doc)) experiments

let lookup id =
  List.find_map (fun (id', _, f) -> if id' = id then Some f else None) experiments

let run_one ctx id =
  match lookup id with
  | Some f ->
    f ctx;
    true
  | None -> false

let run ctx ids =
  let ids = if ids = [] then List.map fst all else ids in
  let resolved = List.map (fun id -> (id, lookup id)) ids in
  (match List.filter (fun (_, f) -> Option.is_none f) resolved with
  | [] -> ()
  | unknown ->
    invalid_arg
      (Printf.sprintf "unknown experiment id(s) %s (known: %s)"
         (String.concat ", " (List.map fst unknown))
         (String.concat ", " (List.map fst all))));
  List.iter
    (fun (id, f) ->
      Printf.printf "==== %s (%s scale, %d job%s) ====\n%!" id ctx.scale.label
        (Pool.default_jobs ())
        (if Pool.default_jobs () = 1 then "" else "s");
      (* Wall clock, not [Sys.time]: CPU time sums over all domains and
         would hide any parallel speedup. *)
      let t0 = Unix.gettimeofday () in
      Sfi_obs.Span.time (Sfi_obs.Span.make ("experiment." ^ id)) (fun () ->
          Option.iter (fun f -> f ctx) f);
      Printf.printf "---- %s done in %.1f s ----\n\n%!" id (Unix.gettimeofday () -. t0))
    resolved
