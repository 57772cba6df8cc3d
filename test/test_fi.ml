open Sfi_util
open Sfi_netlist
open Sfi_timing
open Sfi_kernels
open Sfi_fi

(* Shared fixture: a sized ALU with a small characterization database. *)
let flow_alu =
  lazy
    (let alu = Alu.build () in
     Sizing.apply_process_variation ~sigma:0.03 ~seed:1 alu.Alu.circuit;
     Sizing.size_to_clock ~clock_mhz:707. alu.Alu.circuit;
     alu)

let char_db = lazy (Characterize.run ~cycles:500 ~seed:11 ~vdd:0.7 (Lazy.force flow_alu))

let sta_arrivals =
  lazy
    (let alu = Lazy.force flow_alu in
     Array.map snd (Sta.analyze alu.Alu.circuit).Sta.endpoints)

(* Registry models over the fixture's own STA arrivals and database, at
   0.7 V with the default Vdd curve and setup margin. *)
let model key resources =
  match Model.of_key ~resources key with Ok m -> m | Error e -> failwith e

let model_a p = Sfi_core.Flow.model_a ~bit_flip_prob:p

let static_resources noise =
  { Model.default_resources with
    Model.noise;
    endpoint_arrivals = Some (Lazy.force sta_arrivals) }

let model_b () = model "B" (static_resources Noise.none)

let model_bplus sigma = model "B+" (static_resources (Noise.create ~sigma ()))

let model_c ?(sampling = Model.Independent) ?(vdd = 0.7) sigma =
  model
    (match sampling with Model.Independent -> "C" | Model.Vector_correlated -> "C-corr")
    { Model.default_resources with
      Model.vdd;
      noise = Noise.create ~sigma ();
      db = Some (Lazy.force char_db) }

(* ---------- Model ---------- *)

let test_model_names () =
  Alcotest.(check string) "A" "A" (Model.key (model_a 0.1));
  Alcotest.(check string) "B" "B" (Model.key (model_b ()));
  Alcotest.(check string) "B+" "B+" (Model.key (model_bplus 0.01));
  Alcotest.(check string) "C" "C" (Model.key (model_c 0.01));
  Alcotest.(check string) "C-corr" "C-corr"
    (Model.key (model_c ~sampling:Model.Vector_correlated 0.01))

let test_model_feature_rows () =
  let rows = Model.feature_rows () in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  let c = List.assoc "C" rows in
  Alcotest.(check bool) "C instruction-aware" true c.Model.instruction_aware;
  Alcotest.(check string) "C uses DTA" "DTA" c.Model.timing_data;
  let a = List.assoc "A" rows in
  Alcotest.(check bool) "A not instruction-aware" false a.Model.instruction_aware

(* The production C/C-corr hook against the binary-search sampler it
   replaced (Model_c_oracle), on the Fig. 5 grid (0.80-1.45 x f_STA in
   0.025 steps) at sigma 0 and 10 mV under both samplings: 20 seeds per
   point, 540 per configuration, 200 random-class calls each. Every
   mask must match, both RNGs must end at the same position, and every
   configuration must fault somewhere, so the fault path is exercised. *)
let test_model_c_lockstep () =
  let db = Lazy.force char_db in
  let fsta =
    1e6 /. (Array.fold_left Float.max 0. (Lazy.force sta_arrivals) +. Sta.default_setup_ps)
  in
  let classes = Array.of_list Op_class.all in
  List.iter
    (fun sampling ->
      List.iter
        (fun sigma ->
          let model = model_c ~sampling sigma in
          let faulty = ref 0 in
          for point = 0 to 26 do
            let rel = 0.80 +. (0.025 *. float_of_int point) in
            let freq_mhz = fsta *. rel in
            for s = 0 to 19 do
              let seed = (point * 20) + s in
              let rng = Rng.of_int seed and oracle_rng = Rng.of_int seed in
              let inst = Model.instantiate model ~count_obs:false ~freq_mhz ~rng in
              let oracle =
                Model_c_oracle.sampler ~db ~vdd:0.7 ~noise:(Noise.create ~sigma ())
                  ~vdd_model:Vdd_model.default ~sampling ~freq_mhz ~rng:oracle_rng
              in
              let pick = Rng.of_int (seed + 0x10000) in
              let where () =
                Printf.sprintf "%s sigma=%g f=%.3f x f_STA seed=%d" (Model.key model) sigma
                  rel seed
              in
              for call = 0 to 199 do
                let cls = classes.(Rng.int pick (Array.length classes)) in
                let got = inst.Model.sample ~cycle:call ~cls ~a:0 ~b:0 ~result:0 in
                let want = oracle cls in
                if got <> want then
                  Alcotest.failf "%s call %d (%s): mask %08x, oracle %08x" (where ()) call
                    (Op_class.name cls) got want;
                if got <> 0 then incr faulty
              done;
              if Rng.gaussian rng <> Rng.gaussian oracle_rng
                 || Rng.int64 rng <> Rng.int64 oracle_rng
              then Alcotest.failf "%s: RNG position differs after 200 calls" (where ())
            done
          done;
          if !faulty = 0 then
            Alcotest.failf "%s sigma=%g: no faulty call on the grid" (Model.key model)
              sigma)
        [ 0.; 0.010 ])
    [ Model.Independent; Model.Vector_correlated ]

(* ---------- Injector ---------- *)

let hook_call injector =
  Injector.hook injector ~cycle:0 ~cls:Op_class.Add ~a:1 ~b:2 ~result:3

let test_injector_a_zero_prob_never_fires () =
  let rng = Rng.of_int 1 in
  let injector =
    Injector.create ~model:(model_a 0.) ~freq_mhz:707.
      ~rng ()
  in
  Alcotest.(check bool) "cannot inject" true (Injector.cannot_inject injector);
  for _ = 1 to 100 do
    Alcotest.(check int) "mask 0" 0 (hook_call injector)
  done

let test_injector_a_prob_one_flips_everything () =
  let rng = Rng.of_int 2 in
  let injector =
    Injector.create ~model:(model_a 1.) ~freq_mhz:707.
      ~rng ()
  in
  Alcotest.(check int) "all 32 bits" 0xFFFF_FFFF (hook_call injector);
  Alcotest.(check int) "bits counted" 32 (Injector.fault_bits injector);
  Alcotest.(check int) "one event" 1 (Injector.fault_events injector)

let test_injector_b_below_sta_silent () =
  let rng = Rng.of_int 3 in
  let injector = Injector.create ~model:(model_b ()) ~freq_mhz:700. ~rng () in
  Alcotest.(check bool) "no faults possible at 700 MHz" true (Injector.cannot_inject injector)

let test_injector_b_above_sta_deterministic () =
  let rng = Rng.of_int 4 in
  let injector = Injector.create ~model:(model_b ()) ~freq_mhz:720. ~rng () in
  Alcotest.(check bool) "faults possible" false (Injector.cannot_inject injector);
  let m1 = hook_call injector in
  let m2 = hook_call injector in
  Alcotest.(check bool) "mask nonzero" true (m1 <> 0);
  Alcotest.(check int) "deterministic mask" m1 m2

let test_injector_bplus_noise_randomizes () =
  let rng = Rng.of_int 5 in
  (* Just below the static limit: only noisy cycles fault. *)
  let injector = Injector.create ~model:(model_bplus 0.010) ~freq_mhz:690. ~rng () in
  Alcotest.(check bool) "faults possible under noise" false (Injector.cannot_inject injector);
  let faulted = ref 0 and silent = ref 0 in
  for _ = 1 to 2000 do
    if hook_call injector <> 0 then incr faulted else incr silent
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mixed outcomes (%d faulted, %d silent)" !faulted !silent)
    true
    (!faulted > 0 && !silent > 0)

let test_injector_bplus_onset_matches_scale () =
  (* Below fsta/scale(max excursion) nothing can fault. *)
  let vm = Vdd_model.default in
  let fsta =
    1e6 /. (Array.fold_left Float.max 0. (Lazy.force sta_arrivals) +. Sta.default_setup_ps)
  in
  let onset = fsta /. Vdd_model.scale_factor vm ~vdd:0.7 ~noise:(-0.020) in
  let rng = Rng.of_int 6 in
  let below = Injector.create ~model:(model_bplus 0.010) ~freq_mhz:(onset -. 2.) ~rng () in
  let above = Injector.create ~model:(model_bplus 0.010) ~freq_mhz:(onset +. 2.) ~rng () in
  Alcotest.(check bool) "below onset silent" true (Injector.cannot_inject below);
  Alcotest.(check bool) "above onset live" false (Injector.cannot_inject above)

let test_injector_c_class_dependence () =
  (* At a frequency between the mul and add onsets, mul ops must fault and
     add ops must not. *)
  let db = Lazy.force char_db in
  let f_mul = Characterize.class_first_failure_mhz db Op_class.Mul ~scale:1.0 in
  let f_add = Characterize.class_first_failure_mhz db Op_class.Add ~scale:1.0 in
  Alcotest.(check bool) "mul fails before add" true (f_mul < f_add);
  let f = (f_mul +. f_add) /. 2. in
  let rng = Rng.of_int 7 in
  let injector = Injector.create ~model:(model_c 0.) ~freq_mhz:f ~rng () in
  let hook = Injector.hook injector in
  let mul_faults = ref 0 in
  for _ = 1 to 3000 do
    if hook ~cycle:0 ~cls:Op_class.Mul ~a:0 ~b:0 ~result:0 <> 0 then incr mul_faults;
    Alcotest.(check int) "add never faults here" 0
      (hook ~cycle:0 ~cls:Op_class.Add ~a:0 ~b:0 ~result:0)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mul faulted %d times" !mul_faults)
    true (!mul_faults > 0)

let test_injector_c_rate_grows_with_frequency () =
  let rate f =
    let rng = Rng.of_int 8 in
    let injector = Injector.create ~model:(model_c 0.010) ~freq_mhz:f ~rng () in
    let hook = Injector.hook injector in
    for _ = 1 to 3000 do
      ignore (hook ~cycle:0 ~cls:Op_class.Mul ~a:0 ~b:0 ~result:0)
    done;
    Injector.fault_bits injector
  in
  let r800 = rate 800. and r1000 = rate 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "rate %d @800 < %d @1000" r800 r1000)
    true (r800 < r1000)

let test_injector_c_correlated_masks_from_characterization () =
  (* Vector-correlated masks must be violation masks of some
     characterization cycle. *)
  let db = Lazy.force char_db in
  let f = 1000. in
  let rng = Rng.of_int 9 in
  let injector =
    Injector.create ~model:(model_c ~sampling:Model.Vector_correlated 0.) ~freq_mhz:f ~rng ()
  in
  let hook = Injector.hook injector in
  let period = Sta.period_ps_of_mhz f in
  let valid_masks = Hashtbl.create 64 in
  for k = 0 to db.Characterize.cycles - 1 do
    Hashtbl.replace valid_masks
      (Characterize.violation_mask db Op_class.Mul ~cycle:k ~period_ps:period ~scale:1.0)
      ()
  done;
  for _ = 1 to 500 do
    let mask = hook ~cycle:0 ~cls:Op_class.Mul ~a:0 ~b:0 ~result:0 in
    if not (Hashtbl.mem valid_masks mask) then
      Alcotest.failf "mask %08x not a characterization violation mask" mask
  done

let test_injector_class_accounting () =
  let rng = Rng.of_int 12 in
  let injector = Injector.create ~model:(model_c 0.) ~freq_mhz:1000. ~rng () in
  let hook = Injector.hook injector in
  for _ = 1 to 2000 do
    ignore (hook ~cycle:0 ~cls:Op_class.Mul ~a:0 ~b:0 ~result:0)
  done;
  let by_class = Injector.fault_bits_by_class injector in
  Alcotest.(check int) "totals agree" (Injector.fault_bits injector)
    (Array.fold_left ( + ) 0 by_class);
  Alcotest.(check int) "all attributed to mul" (Injector.fault_bits injector)
    by_class.(Op_class.index Op_class.Mul);
  Alcotest.(check bool) "mul faulted" true (Injector.fault_bits injector > 0)

let test_injector_deterministic_in_rng () =
  let masks seed =
    let rng = Rng.of_int seed in
    let injector = Injector.create ~model:(model_c 0.010) ~freq_mhz:900. ~rng () in
    let hook = Injector.hook injector in
    List.init 200 (fun _ -> hook ~cycle:0 ~cls:Op_class.Mul ~a:0 ~b:0 ~result:0)
  in
  Alcotest.(check bool) "same seed same masks" true (masks 42 = masks 42);
  Alcotest.(check bool) "different seed differs" true (masks 42 <> masks 43)

(* ---------- Campaign ---------- *)

let small_median = lazy (Median.create ~n:21 ~seed:3 ())

(* Spec builder mirroring the old optional-argument surface, so the
   campaign tests keep reading in terms of per-call trial counts. *)
let spec ?(trials = 100) ?(seed = 1) ?jobs () =
  let s = Campaign.Spec.(default |> with_trials trials |> with_seed seed) in
  match jobs with Some j -> Campaign.Spec.with_jobs j s | None -> s

let test_campaign_fault_free_point () =
  let p =
    Campaign.run (spec ~trials:5 ()) ~bench:(Lazy.force small_median)
      ~model:(model_a 0.)
      ~freq_mhz:707.
  in
  Alcotest.(check (float 0.)) "finished" 1.0 p.Campaign.finished_rate;
  Alcotest.(check (float 0.)) "correct" 1.0 p.Campaign.correct_rate;
  Alcotest.(check bool) "marked n/a" false p.Campaign.any_fault_possible;
  Alcotest.(check (float 0.)) "no error" 0. p.Campaign.mean_error

let test_campaign_saturated_faults_break_everything () =
  let p =
    Campaign.run (spec ~trials:5 ()) ~bench:(Lazy.force small_median)
      ~model:(model_a 0.5)
      ~freq_mhz:707.
  in
  Alcotest.(check (float 0.)) "nothing correct" 0.0 p.Campaign.correct_rate;
  Alcotest.(check bool) "fi rate large" true (p.Campaign.fi_per_kcycle > 100.)

let test_campaign_below_onset_uses_fast_path () =
  let p =
    Campaign.run (spec ~trials:50 ()) ~bench:(Lazy.force small_median)
      ~model:(model_c 0.) ~freq_mhz:500.
  in
  Alcotest.(check bool) "fast path" false p.Campaign.any_fault_possible;
  Alcotest.(check int) "single representative trial" 1 p.Campaign.trials

let test_campaign_trial_determinism () =
  let run () =
    Campaign.run_trial ~bench:(Lazy.force small_median) ~model:(model_c 0.010)
      ~freq_mhz:950. ~seed:7
  in
  let t1 = run () and t2 = run () in
  Alcotest.(check bool) "same outcome" true
    (t1.Campaign.finished = t2.Campaign.finished
    && t1.Campaign.correct = t2.Campaign.correct
    && t1.Campaign.fault_bits = t2.Campaign.fault_bits
    && t1.Campaign.fault_events = t2.Campaign.fault_events
    && t1.Campaign.kernel_cycles = t2.Campaign.kernel_cycles);
  Alcotest.(check bool) "same error (nan-aware)" true
    (t1.Campaign.error = t2.Campaign.error
    || (Float.is_nan t1.Campaign.error && Float.is_nan t2.Campaign.error))

let test_campaign_poff_detection () =
  let mk freq correct =
    {
      Campaign.freq_mhz = freq;
      trials = 10;
      trials_requested = 10;
      finished_rate = 1.;
      correct_rate = correct;
      ci_low = correct;
      ci_high = correct;
      fi_per_kcycle = 0.;
      mean_error = 0.;
      any_fault_possible = true;
    }
  in
  Alcotest.(check (option (float 0.))) "first failing freq" (Some 800.)
    (Campaign.point_of_first_failure [ mk 700. 1.0; mk 800. 0.9; mk 900. 0.1 ]);
  Alcotest.(check (option (float 0.))) "none" None
    (Campaign.point_of_first_failure [ mk 700. 1.0 ])

(* Structural equality over [Campaign.point], except nan = nan for
   [mean_error] (no trial finished on both sides). *)
let point_equal (p : Campaign.point) (q : Campaign.point) =
  p.Campaign.freq_mhz = q.Campaign.freq_mhz
  && p.Campaign.trials = q.Campaign.trials
  && p.Campaign.trials_requested = q.Campaign.trials_requested
  && p.Campaign.finished_rate = q.Campaign.finished_rate
  && p.Campaign.correct_rate = q.Campaign.correct_rate
  && p.Campaign.ci_low = q.Campaign.ci_low
  && p.Campaign.ci_high = q.Campaign.ci_high
  && p.Campaign.fi_per_kcycle = q.Campaign.fi_per_kcycle
  && (p.Campaign.mean_error = q.Campaign.mean_error
     || (Float.is_nan p.Campaign.mean_error && Float.is_nan q.Campaign.mean_error))
  && p.Campaign.any_fault_possible = q.Campaign.any_fault_possible

(* Runs [f] with observability counters reset + enabled and returns
   (result, det signature of the work done). The first call warms the
   campaign's reference-cycle cache outside the measured region so the
   hit/miss counters are identical across compared runs. *)
let with_obs_signature f =
  Sfi_obs.reset ();
  Sfi_obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Sfi_obs.set_enabled false)
    (fun () ->
      let r = f () in
      (r, Sfi_obs.det_signature ()))

let test_campaign_jobs_determinism () =
  let bench = Lazy.force small_median in
  let model = model_c 0.010 in
  (* Warm the reference-cycle cache so both instrumented runs see the
     same cache hit/miss counts. *)
  ignore (Campaign.run (spec ~trials:1 ()) ~bench ~model ~freq_mhz:900.);
  List.iter
    (fun seed ->
      List.iter
        (fun freq_mhz ->
          let serial, sig1 =
            with_obs_signature (fun () ->
                Campaign.run (spec ~trials:10 ~seed ~jobs:1 ()) ~bench ~model ~freq_mhz)
          in
          let pooled, sig4 =
            with_obs_signature (fun () ->
                Campaign.run (spec ~trials:10 ~seed ~jobs:4 ()) ~bench ~model ~freq_mhz)
          in
          if not (point_equal serial pooled) then
            Alcotest.failf "jobs=1 vs jobs=4 differ at seed %d, %.0f MHz" seed freq_mhz;
          (* The merged observability counters must agree too: same
             events, settles, attempts, faults — only wall-clock spans
             and scheduling counters (both excluded from the signature)
             may differ. *)
          List.iter2
            (fun (n1, v1) (n4, v4) ->
              if n1 <> n4 || v1 <> v4 then
                Alcotest.failf "obs %s diverged at seed %d, %.0f MHz" n1 seed freq_mhz)
            sig1 sig4)
        [ 900.; 980. ])
    [ 1; 7; 42 ]

let test_campaign_sweep_jobs_determinism () =
  let bench = Lazy.force small_median in
  let model = model_c 0.010 in
  let freqs = [ 880.; 940.; 1000. ] in
  ignore (Campaign.run (spec ~trials:1 ()) ~bench ~model ~freq_mhz:880.);
  let serial, sig1 =
    with_obs_signature (fun () ->
        Campaign.run_sweep (spec ~trials:6 ~seed:5 ~jobs:1 ()) ~bench ~model
          ~freqs_mhz:freqs)
  in
  let pooled, sig4 =
    with_obs_signature (fun () ->
        Campaign.run_sweep (spec ~trials:6 ~seed:5 ~jobs:4 ()) ~bench ~model
          ~freqs_mhz:freqs)
  in
  Alcotest.(check int) "same length" (List.length serial) (List.length pooled);
  List.iter2
    (fun p q ->
      if not (point_equal p q) then
        Alcotest.failf "sweep points differ at %.0f MHz" p.Campaign.freq_mhz)
    serial pooled;
  Alcotest.(check bool) "merged obs signatures identical" true (sig1 = sig4)

let test_campaign_sweep_shape () =
  let points =
    Campaign.run_sweep (spec ~trials:8 ()) ~bench:(Lazy.force small_median)
      ~model:(model_c 0.010) ~freqs_mhz:[ 600.; 900.; 1100. ]
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  let correct = List.map (fun p -> p.Campaign.correct_rate) points in
  (match correct with
  | [ a; _; c ] ->
    Alcotest.(check (float 0.)) "safe at 600" 1.0 a;
    Alcotest.(check bool) "degrades by 1100" true (c < 1.0)
  | _ -> Alcotest.fail "unexpected shape")

let () =
  Alcotest.run "sfi_fi"
    [
      ( "model",
        [
          Alcotest.test_case "names" `Quick test_model_names;
          Alcotest.test_case "feature rows" `Quick test_model_feature_rows;
          Alcotest.test_case "C lockstep with binary-search oracle" `Quick
            test_model_c_lockstep;
        ] );
      ( "injector",
        [
          Alcotest.test_case "A p=0" `Quick test_injector_a_zero_prob_never_fires;
          Alcotest.test_case "A p=1" `Quick test_injector_a_prob_one_flips_everything;
          Alcotest.test_case "B below STA" `Quick test_injector_b_below_sta_silent;
          Alcotest.test_case "B deterministic" `Quick test_injector_b_above_sta_deterministic;
          Alcotest.test_case "B+ randomizes" `Quick test_injector_bplus_noise_randomizes;
          Alcotest.test_case "B+ onset" `Quick test_injector_bplus_onset_matches_scale;
          Alcotest.test_case "C class-dependent" `Quick test_injector_c_class_dependence;
          Alcotest.test_case "C rate grows with f" `Quick test_injector_c_rate_grows_with_frequency;
          Alcotest.test_case "C correlated masks" `Quick
            test_injector_c_correlated_masks_from_characterization;
          Alcotest.test_case "class accounting" `Quick test_injector_class_accounting;
          Alcotest.test_case "deterministic in rng" `Quick test_injector_deterministic_in_rng;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fault-free point" `Quick test_campaign_fault_free_point;
          Alcotest.test_case "saturated faults" `Quick test_campaign_saturated_faults_break_everything;
          Alcotest.test_case "fast path below onset" `Quick test_campaign_below_onset_uses_fast_path;
          Alcotest.test_case "trial determinism" `Quick test_campaign_trial_determinism;
          Alcotest.test_case "jobs determinism" `Quick test_campaign_jobs_determinism;
          Alcotest.test_case "sweep jobs determinism" `Quick
            test_campaign_sweep_jobs_determinism;
          Alcotest.test_case "PoFF detection" `Quick test_campaign_poff_detection;
          Alcotest.test_case "sweep shape" `Quick test_campaign_sweep_shape;
        ] );
    ]
