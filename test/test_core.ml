open Sfi_timing
open Sfi_core

let check_float = Alcotest.(check (float 1e-6))

(* One shared flow with a small characterization kernel. *)
let ctx = lazy (Experiments.make_ctx { Experiments.fast with Experiments.char_cycles = 400 })

let flow = lazy (Experiments.flow (Lazy.force ctx))

(* ---------- Flow ---------- *)

let test_flow_sta_limit_calibrated () =
  let fsta = Flow.sta_limit_mhz (Lazy.force flow) ~vdd:0.7 in
  Alcotest.(check bool) (Printf.sprintf "707 calibration (%.2f)" fsta) true
    (abs_float (fsta -. 707.) < 1.0)

let test_flow_sta_limit_scales_with_vdd () =
  let f = Lazy.force flow in
  let f07 = Flow.sta_limit_mhz f ~vdd:0.7 and f08 = Flow.sta_limit_mhz f ~vdd:0.8 in
  Alcotest.(check bool) "faster at 0.8 V" true (f08 > f07 *. 1.2);
  Alcotest.(check bool) "below 1.4x" true (f08 < f07 *. 1.4)

let test_flow_char_db_cached () =
  let f = Lazy.force flow in
  let db1 = Flow.char_db f ~vdd:0.7 in
  let db2 = Flow.char_db f ~vdd:0.7 in
  Alcotest.(check bool) "physically equal" true (db1 == db2)

let test_flow_models_constructible () =
  let f = Lazy.force flow in
  Alcotest.(check string) "B" "B" (Sfi_fi.Model.key (Flow.model_b f ~vdd:0.7));
  Alcotest.(check string) "B+" "B+"
    (Sfi_fi.Model.key (Flow.model_bplus f ~vdd:0.7 ~sigma:0.01));
  Alcotest.(check string) "C" "C" (Sfi_fi.Model.key (Flow.model_c f ~vdd:0.7 ~sigma:0.01 ()));
  Alcotest.(check string) "A" "A" (Sfi_fi.Model.key (Flow.model_a ~bit_flip_prob:0.1))

let contains s word =
  let n = String.length word in
  let rec go i = i + n <= String.length s && (String.sub s i n = word || go (i + 1)) in
  go 0

let test_flow_summary_mentions_stages () =
  let s = Flow.summary (Lazy.force flow) in
  List.iter
    (fun word -> if not (contains s word) then Alcotest.failf "summary lacks %S" word)
    [ "netlist"; "virtual synthesis"; "STA"; "DTA"; "mul"; "addsub" ]

let test_flow_operating_vdd_rescales () =
  (* Model C characterized at 0.7 V but operated at a reduced supply must
     start injecting at lower frequencies. *)
  let f = Lazy.force flow in
  let open Sfi_util in
  let onset model =
    (* Bisect the injector's fast-path boundary. *)
    let can freq =
      let rng = Rng.of_int 1 in
      not (Sfi_fi.Injector.cannot_inject (Sfi_fi.Injector.create ~model ~freq_mhz:freq ~rng ()))
    in
    let lo = ref 300. and hi = ref 2000. in
    for _ = 1 to 40 do
      let mid = (!lo +. !hi) /. 2. in
      if can mid then hi := mid else lo := mid
    done;
    !hi
  in
  let nominal = onset (Flow.model_c f ~vdd:0.7 ~sigma:0. ()) in
  let scaled = onset (Flow.model_c ~operating_vdd:0.66 f ~vdd:0.7 ~sigma:0. ()) in
  Alcotest.(check bool)
    (Printf.sprintf "onset %.0f at 0.66 V < %.0f at 0.7 V" scaled nominal)
    true
    (scaled < nominal -. 20.)

let test_flow_corner_shifts_sta () =
  let config =
    { Flow.default_config with Flow.char_cycles = 100; Flow.corner_factor = 1.1 }
  in
  let slow = Flow.create ~config () in
  Alcotest.(check bool) "slow corner lowers fmax" true
    (Flow.sta_limit_mhz slow ~vdd:0.7 < 660.)

(* ---------- Power ---------- *)

let test_power_reference_points () =
  (* The paper's two post-layout reference points. *)
  let p06 = Power.active_uw_per_mhz ~vdd:0.6 and p07 = Power.active_uw_per_mhz ~vdd:0.7 in
  Alcotest.(check bool) (Printf.sprintf "10.9 at 0.6 (got %.2f)" p06) true
    (abs_float (p06 -. 10.9) < 0.3);
  Alcotest.(check bool) (Printf.sprintf "15.0 at 0.7 (got %.2f)" p07) true
    (abs_float (p07 -. 15.0) < 0.3)

let test_power_normalized () =
  check_float "unity at nominal" 1.0 (Power.normalized ~vdd:0.7);
  let p = Power.normalized ~vdd:0.667 in
  Alcotest.(check bool) (Printf.sprintf "0.667 V ~ 0.91x (got %.3f)" p) true
    (p > 0.88 && p < 0.94)

let test_power_leakage_fraction () =
  check_float "3% at 0.7" 0.03 (Power.leakage_fraction ~vdd:0.7);
  check_float "2% at 0.6" 0.02 (Power.leakage_fraction ~vdd:0.6)

let test_power_equivalent_vdd () =
  let vm = Vdd_model.default in
  let v = Power.equivalent_vdd vm ~headroom_ratio:1.0 in
  Alcotest.(check bool) "ratio 1 -> nominal" true (abs_float (v -. 0.7) < 0.002);
  let v10 = Power.equivalent_vdd vm ~headroom_ratio:1.1 in
  Alcotest.(check bool) (Printf.sprintf "10%% headroom -> %.3f V" v10) true
    (v10 < 0.7 && v10 > 0.6);
  Alcotest.(check (float 1e-3)) "roundtrip through derate" 1.1 (Vdd_model.derate vm v10)

let test_power_rejects_bad_ratio () =
  Alcotest.(check bool) "ratio < 1" true
    (try ignore (Power.equivalent_vdd Vdd_model.default ~headroom_ratio:0.9); false
     with Invalid_argument _ -> true)

(* ---------- Experiments registry ---------- *)

let test_experiments_registry_complete () =
  let ids = List.map fst Experiments.all in
  List.iter
    (fun required ->
      if not (List.mem required ids) then Alcotest.failf "missing experiment %s" required)
    [ "table1"; "table2"; "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7" ]

let test_experiments_unknown_id () =
  Alcotest.(check bool) "unknown rejected" false
    (Experiments.run_one (Lazy.force ctx) "nonsense");
  match Experiments.run (Lazy.force ctx) [ "table2"; "nonsense" ] with
  | () -> Alcotest.fail "run accepted an unknown id"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("names the unknown id: " ^ msg) true (contains msg "nonsense")

let test_experiments_cheap_ones_run () =
  (* table2/fig3 exercise the registry and flow summary quickly. *)
  List.iter
    (fun id -> Alcotest.(check bool) id true (Experiments.run_one (Lazy.force ctx) id))
    [ "table2"; "fig3" ]

let () =
  Alcotest.run "sfi_core"
    [
      ( "flow",
        [
          Alcotest.test_case "STA calibrated to 707" `Quick test_flow_sta_limit_calibrated;
          Alcotest.test_case "STA scales with vdd" `Quick test_flow_sta_limit_scales_with_vdd;
          Alcotest.test_case "char db cached" `Quick test_flow_char_db_cached;
          Alcotest.test_case "models constructible" `Quick test_flow_models_constructible;
          Alcotest.test_case "operating vdd rescales" `Quick test_flow_operating_vdd_rescales;
          Alcotest.test_case "summary stages" `Quick test_flow_summary_mentions_stages;
          Alcotest.test_case "corner shifts STA" `Quick test_flow_corner_shifts_sta;
        ] );
      ( "power",
        [
          Alcotest.test_case "reference points" `Quick test_power_reference_points;
          Alcotest.test_case "normalized" `Quick test_power_normalized;
          Alcotest.test_case "leakage fraction" `Quick test_power_leakage_fraction;
          Alcotest.test_case "equivalent vdd" `Quick test_power_equivalent_vdd;
          Alcotest.test_case "rejects bad ratio" `Quick test_power_rejects_bad_ratio;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry complete" `Quick test_experiments_registry_complete;
          Alcotest.test_case "unknown id" `Quick test_experiments_unknown_id;
          Alcotest.test_case "cheap experiments run" `Quick test_experiments_cheap_ones_run;
        ] );
    ]
