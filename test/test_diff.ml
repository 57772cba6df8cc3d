(* Cross-model differential tests: models B, B+ and C built from the
   same sized circuit, exercised with identical seeds, checked against
   each other's conservatism ordering.

   The load-bearing invariant is the STA/DTA relation: a static-timing
   arrival is the worst case over all input vectors, so per endpoint
   STA arrival >= any dynamically characterized settle time. Hence at
   nominal voltage (sigma = 0) every fault mask model C can produce is
   a subset of model B's static mask, and C's fault onset frequency is
   at least B's. Overscaling monotonicity holds per characterized
   cycle: a shorter period can only grow the violation mask. *)

open Sfi_util
open Sfi_netlist
open Sfi_timing
open Sfi_fi

(* Shared fixture, mirroring test_fi: one sized ALU, characterized once. *)
let flow_alu =
  lazy
    (let alu = Alu.build () in
     Sizing.apply_process_variation ~sigma:0.03 ~seed:2 alu.Alu.circuit;
     Sizing.size_to_clock ~clock_mhz:707. alu.Alu.circuit;
     alu)

let char_db = lazy (Characterize.run ~cycles:400 ~seed:21 ~vdd:0.7 (Lazy.force flow_alu))

let sta_with_setup =
  lazy
    (let alu = Lazy.force flow_alu in
     let arr = Array.map snd (Sta.analyze alu.Alu.circuit).Sta.endpoints in
     Array.map (fun a -> a +. Sta.default_setup_ps) arr)

let sta_arrivals = lazy (Array.map snd (Sta.analyze (Lazy.force flow_alu).Alu.circuit).Sta.endpoints)

(* Models built by key over the fixture's own STA arrivals and database, at
   0.7 V with the default Vdd curve and setup margin; sigma = 0 means no
   supply noise (model B rather than B+). *)
let model key resources =
  match Model.of_key ~resources key with Ok m -> m | Error e -> failwith e

let noise sigma = if sigma = 0. then Noise.none else Noise.create ~sigma ()

let model_b ?(sigma = 0.) () =
  model
    (if sigma = 0. then "B" else "B+")
    { Model.default_resources with
      Model.noise = noise sigma;
      endpoint_arrivals = (fun () -> Lazy.force sta_arrivals) }

let model_c ?(sampling = Model.Independent) ?(sigma = 0.) () =
  model
    (match sampling with Model.Independent -> "C" | Model.Vector_correlated -> "C-corr")
    { Model.default_resources with
      Model.noise = noise sigma;
      db = (fun () -> Lazy.force char_db) }

(* B's fault onset: period = slowest STA arrival incl. setup. *)
let onset_b_mhz () =
  let max_arrival = Array.fold_left Float.max 0. (Lazy.force sta_with_setup) in
  1e6 /. max_arrival

let subset ~small ~big = small land lnot big = 0

(* ---------- STA dominates DTA per endpoint ---------- *)

let test_sta_dominates_dta_settles () =
  let db = Lazy.force char_db in
  let sta = Lazy.force sta_arrivals in
  Array.iter
    (fun (cdb : Characterize.class_db) ->
      Array.iteri
        (fun e cdf ->
          let settle = Cdf.max_value cdf in
          if settle > sta.(e) +. 1e-9 then
            Alcotest.failf "class %s endpoint %d: DTA settle %.1f > STA arrival %.1f"
              (Op_class.name cdb.Characterize.cls) e settle sta.(e))
        cdb.Characterize.endpoint_cdfs)
    db.Characterize.classes

(* ---------- C's masks are subsets of B's static mask ---------- *)

let test_c_masks_subset_of_b_static () =
  List.iter
    (fun rel ->
      let freq = onset_b_mhz () *. rel in
      let inj_b = Injector.create ~model:(model_b ()) ~freq_mhz:freq ~rng:(Rng.of_int 9) () in
      let inj_c = Injector.create ~model:(model_c ()) ~freq_mhz:freq ~rng:(Rng.of_int 9) () in
      let hb = Injector.hook inj_b and hc = Injector.hook inj_c in
      let rng = Rng.of_int 31 in
      for cycle = 1 to 400 do
        List.iter
          (fun cls ->
            let a = Rng.bits32 rng and b = Rng.bits32 rng in
            let result = Op_class.apply cls a b in
            let mb = hb ~cycle ~cls ~a ~b ~result in
            let mc = hc ~cycle ~cls ~a ~b ~result in
            if not (subset ~small:mc ~big:mb) then
              Alcotest.failf
                "at %.0f MHz (%.2fx onset), class %s: C mask %08x not in B mask %08x"
                freq rel (Op_class.name cls) mc mb)
          [ Op_class.Add; Op_class.Mul; Op_class.Xor_ ]
      done;
      Alcotest.(check bool)
        (Printf.sprintf "C injects no more bits than B at %.2fx onset" rel)
        true
        (Injector.fault_bits inj_c <= Injector.fault_bits inj_b))
    [ 0.95; 1.05; 1.20; 1.40 ]

let test_c_onset_not_below_b () =
  (* Below B's static onset, C must also be unable to inject. *)
  let freq = onset_b_mhz () *. 0.98 in
  let inj_b = Injector.create ~model:(model_b ()) ~freq_mhz:freq ~rng:(Rng.of_int 4) () in
  let inj_c = Injector.create ~model:(model_c ()) ~freq_mhz:freq ~rng:(Rng.of_int 4) () in
  Alcotest.(check bool) "B cannot inject below onset" true (Injector.cannot_inject inj_b);
  Alcotest.(check bool) "C cannot inject below B's onset" true
    (Injector.cannot_inject inj_c)

(* ---------- B+ reaches below B's static onset ---------- *)

let test_bplus_faults_below_static_onset () =
  let freq = onset_b_mhz () *. 0.99 in
  let inj_b = Injector.create ~model:(model_b ()) ~freq_mhz:freq ~rng:(Rng.of_int 5) () in
  let inj_bplus =
    Injector.create ~model:(model_b ~sigma:0.025 ()) ~freq_mhz:freq ~rng:(Rng.of_int 5) ()
  in
  Alcotest.(check bool) "B silent just below onset" true (Injector.cannot_inject inj_b);
  Alcotest.(check bool) "B+ worst-case noise can violate" false
    (Injector.cannot_inject inj_bplus)

(* ---------- overscaling monotonicity (per characterized cycle) ---------- *)

let test_violation_mask_monotone_in_overscaling () =
  let db = Lazy.force char_db in
  let base_period = 1e6 /. onset_b_mhz () in
  List.iter
    (fun cls ->
      for cycle = 0 to 99 do
        let masks =
          List.map
            (fun rel ->
              Characterize.violation_mask db cls ~cycle ~period_ps:(base_period /. rel)
                ~scale:1.)
            [ 1.0; 1.1; 1.2; 1.35; 1.5 ]
        in
        (* Masks at increasing overscaling form a chain of supersets. *)
        ignore
          (List.fold_left
             (fun prev mask ->
               if not (subset ~small:prev ~big:mask) then
                 Alcotest.failf "class %s cycle %d: mask %08x lost bits vs %08x"
                   (Op_class.name cls) cycle mask prev;
               mask)
             0 masks)
      done)
    [ Op_class.Add; Op_class.Mul; Op_class.Srl ]

let test_error_probability_monotone () =
  let db = Lazy.force char_db in
  let base_period = 1e6 /. onset_b_mhz () in
  List.iter
    (fun cls ->
      for endpoint = 0 to 31 do
        let ps =
          List.map
            (fun rel ->
              Characterize.error_probability db cls ~endpoint
                ~period_ps:(base_period /. rel) ~scale:1.)
            [ 1.0; 1.15; 1.3; 1.5 ]
        in
        ignore
          (List.fold_left
             (fun prev p ->
               if p < prev -. 1e-12 then
                 Alcotest.failf "class %s endpoint %d: P dropped %.6f -> %.6f"
                   (Op_class.name cls) endpoint prev p;
               p)
             0. ps)
      done)
    [ Op_class.Add; Op_class.Mul ]

(* ---------- fault counts monotone in frequency (aligned streams) ---------- *)

let test_fault_bits_monotone_in_frequency () =
  (* Vector-correlated sampling at sigma = 0 draws exactly one cycle
     sample per non-skipped call. Restricting to the slowest class at
     frequencies where its early exits never fire keeps the RNG streams
     aligned across frequencies, so per-call masks nest and the total
     bit count is monotone. *)
  let db = Lazy.force char_db in
  let slowest =
    let best = ref (db.Characterize.classes.(0)) in
    Array.iter
      (fun (c : Characterize.class_db) ->
        if c.Characterize.max_settle > !best.Characterize.max_settle then best := c)
      db.Characterize.classes;
    !best.Characterize.cls
  in
  let f_class =
    1e6 /. (Characterize.(class_db db slowest).Characterize.max_settle
            +. db.Characterize.setup_ps)
  in
  let bits_at rel =
    let inj =
      Injector.create
        ~model:(model_c ~sampling:Model.Vector_correlated ())
        ~freq_mhz:(f_class *. rel) ~rng:(Rng.of_int 123) ()
    in
    let hook = Injector.hook inj in
    for cycle = 1 to 500 do
      ignore (hook ~cycle ~cls:slowest ~a:1 ~b:2 ~result:3 : int)
    done;
    Injector.fault_bits inj
  in
  let counts = List.map bits_at [ 1.02; 1.1; 1.2; 1.35 ] in
  ignore
    (List.fold_left
       (fun prev n ->
         if n < prev then
           Alcotest.failf "fault bits dropped with rising frequency: %d -> %d" prev n;
         n)
       0 counts);
  Alcotest.(check bool) "some faults at deep overscaling" true
    (List.nth counts 3 > 0)

(* ---------- model A is timing-blind ---------- *)

let test_model_a_frequency_invariant () =
  (* Fixed-probability injection ignores the clock entirely: identical
     seeds give identical fault streams at any frequency — the opposite
     of B/B+/C, whose masks are functions of the period. *)
  let masks_at freq =
    let inj =
      Injector.create
        ~model:(Sfi_core.Flow.model_a ~bit_flip_prob:0.01)
        ~freq_mhz:freq ~rng:(Rng.of_int 55) ()
    in
    let hook = Injector.hook inj in
    List.init 300 (fun cycle -> hook ~cycle ~cls:Op_class.Add ~a:1 ~b:2 ~result:3)
  in
  let slow = masks_at 500. in
  Alcotest.(check (list int)) "masks independent of frequency" slow (masks_at 1500.);
  Alcotest.(check bool) "some faults at p=0.01 over 300 calls" true
    (List.exists (fun m -> m <> 0) slow)

(* ---------- obs counters as cross-model oracle ---------- *)

let test_obs_counters_match_injector_accounting () =
  Sfi_obs.reset ();
  Sfi_obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Sfi_obs.set_enabled false)
    (fun () ->
      let freq = onset_b_mhz () *. 1.25 in
      let value name =
        match
          List.find_opt (fun e -> e.Sfi_obs.entry_name = name) (Sfi_obs.snapshot ())
        with
        | Some { Sfi_obs.entry_value = Sfi_obs.Counter_v v; _ } -> v
        | _ -> 0
      in
      let run model =
        let inj = Injector.create ~model ~freq_mhz:freq ~rng:(Rng.of_int 77) () in
        let hook = Injector.hook inj in
        let rng = Rng.of_int 88 in
        for cycle = 1 to 300 do
          let a = Rng.bits32 rng and b = Rng.bits32 rng in
          ignore (hook ~cycle ~cls:Op_class.Mul ~a ~b ~result:(U32.mul a b) : int)
        done;
        inj
      in
      let attempts0 = value "injector.attempts.mul" in
      let inj_b = run (model_b ()) in
      let inj_c = run (model_c ()) in
      Alcotest.(check int) "attempts counted per call" (attempts0 + 600)
        (value "injector.attempts.mul");
      Alcotest.(check int) "faults.B matches fault_bits"
        (Injector.fault_bits inj_b) (value "injector.faults.B");
      Alcotest.(check int) "faults.C matches fault_bits"
        (Injector.fault_bits inj_c) (value "injector.faults.C");
      Alcotest.(check bool) "oracle agrees with conservatism order" true
        (value "injector.faults.C" <= value "injector.faults.B"))

let () =
  Alcotest.run "sfi_diff"
    [
      ( "sta_vs_dta",
        [
          Alcotest.test_case "STA arrival dominates DTA settle" `Quick
            test_sta_dominates_dta_settles;
          Alcotest.test_case "C masks subset of B static mask" `Quick
            test_c_masks_subset_of_b_static;
          Alcotest.test_case "C onset not below B onset" `Quick test_c_onset_not_below_b;
          Alcotest.test_case "B+ faults below static onset" `Quick
            test_bplus_faults_below_static_onset;
          Alcotest.test_case "A is frequency-blind" `Quick
            test_model_a_frequency_invariant;
        ] );
      ( "overscaling",
        [
          Alcotest.test_case "violation mask monotone" `Quick
            test_violation_mask_monotone_in_overscaling;
          Alcotest.test_case "error probability monotone" `Quick
            test_error_probability_monotone;
          Alcotest.test_case "fault bits monotone in frequency" `Quick
            test_fault_bits_monotone_in_frequency;
        ] );
      ( "obs_oracle",
        [
          Alcotest.test_case "counters match injector accounting" `Quick
            test_obs_counters_match_injector_accounting;
        ] );
    ]
