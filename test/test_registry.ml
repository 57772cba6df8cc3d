(* The fault-model table:

   - every shipped model is listed, case-insensitively findable, and
     rebuilds from its key and canonical parameters with the same
     label and cache fingerprint;
   - the parameter codec rejects unknown names, type mismatches,
     probabilities outside [0, 1] (NaN included) and physically invalid
     values (a glitch below threshold voltage);
   - each model calls only the resource provider it uses, and none
     when its parameters are invalid;
   - the declared draw-count contract holds: wherever an instance
     declares [skippable_gaussians = Some k], the hook really is a
     no-op consuming exactly [k] standard-normal draws (checked against
     [Rng.skip_gaussians] over hundreds of seeds);
   - [may_inject], the fast-forward probe's question, answers for
     [sample] on every model: until its first [true], [sample] on
     random operands returns 0 and draws exactly the same randomness;
   - [skip], whose mask reads operands and its EX latch, fast-forwards
     every trial and equals the full-replay reference point;
   - a mixed built-in + attack campaign killed mid-run resumes from its
     shared checkpoint bit-identically (records are keyed by the model
     fingerprint, so the models never consume each other's batches);
   - the guarded-AES metric classifies correct / detected / attack
     success / SDC outcomes the way the attack experiment expects. *)

open Sfi_util
open Sfi_netlist
open Sfi_timing
open Sfi_kernels
open Sfi_fi
module Json = Sfi_obs.Json
module Spec = Campaign.Spec

let () = Sfi_obs.set_enabled true

let c_elided = Sfi_obs.Counter.make ~det:false "fastforward.trials_elided"

let c_restores = Sfi_obs.Counter.make ~det:false "fastforward.restores"

let c_resumed = Sfi_obs.Counter.make ~det:false "campaign.resumed_trials"

let value = Sfi_obs.Counter.value

(* Shared fixture: a sized ALU, its STA arrivals and a small DTA
   database — enough resources to build every model. *)
let flow_alu =
  lazy
    (let alu = Alu.build () in
     Sizing.apply_process_variation ~sigma:0.03 ~seed:1 alu.Alu.circuit;
     Sizing.size_to_clock ~clock_mhz:707. alu.Alu.circuit;
     alu)

let char_db = lazy (Characterize.run ~cycles:400 ~seed:31 ~vdd:0.7 (Lazy.force flow_alu))

let sta_arrivals =
  lazy (Array.map snd (Sta.analyze (Lazy.force flow_alu).Alu.circuit).Sta.endpoints)

let resources () =
  {
    Model.vdd = 0.7;
    noise = Noise.create ~sigma:0.010 ();
    vdd_model = Vdd_model.default;
    setup_ps = Sta.default_setup_ps;
    endpoint_arrivals = (fun () -> Lazy.force sta_arrivals);
    db = (fun () -> Lazy.force char_db);
  }

let ok what = function
  | Ok m -> m
  | Error e -> Alcotest.failf "%s: %s" what e

let model ?params key = ok key (Model.of_key ?params ~resources:(resources ()) key)

let fingerprint_hex m =
  let fp = Sfi_cache.Fingerprint.create "test" in
  Model.add_fingerprint m fp;
  Sfi_cache.Fingerprint.hex fp

(* ---------- listing and lookup ---------- *)

let test_registry_keys () =
  Alcotest.(check (list string))
    "keys in table order"
    [ "A"; "B"; "B+"; "C"; "C-corr"; "glitch"; "skip"; "opcode"; "state" ]
    (List.map (fun (e : Model.entry) -> e.Model.key) Model.entries);
  Alcotest.(check bool) "case-insensitive find" true (Model.find "GLITCH" <> None);
  Alcotest.(check bool) "unknown key absent" true (Model.find "nope" = None)

(* ---------- key + parameters round trip ---------- *)

(* A model's key and canonical parameters rebuild it: same label (the
   CLI's JSON meta), same parameters, same fingerprint. *)
let check_round_trip m =
  let s = Model.to_string m in
  let m' = model ~params:(Model.params m) (Model.key m) in
  Alcotest.(check string) (s ^ ": label survives") s (Model.to_string m');
  Alcotest.(check string)
    (s ^ ": params survive")
    (Json.to_string (Json.Obj (Model.params m)))
    (Json.to_string (Json.Obj (Model.params m')));
  Alcotest.(check string)
    (s ^ ": fingerprint identical")
    (fingerprint_hex m) (fingerprint_hex m')

let test_round_trip_every_model () =
  List.iter (fun (e : Model.entry) -> check_round_trip (model e.Model.key)) Model.entries

let test_round_trip_overridden_params () =
  check_round_trip
    (model "glitch"
       ~params:
         [
           ("start", Json.Int 37);
           ("len", Json.Int 3);
           ("every", Json.Int 120);
           ("drop_mv", Json.Float 85.);
         ]);
  check_round_trip (model "state" ~params:[ ("flips", Json.Int 4) ]);
  check_round_trip (model "A" ~params:[ ("p", Json.Float 0.25) ])

let test_param_codec_errors () =
  let r = resources () in
  let expect_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  expect_error "unknown param"
    (Model.of_key "A" ~params:[ ("q", Json.Float 0.1) ] ~resources:r);
  expect_error "mistyped param"
    (Model.of_key "skip" ~params:[ ("p", Json.String "x") ] ~resources:r);
  List.iter
    (fun (key, p) ->
      expect_error
        (Printf.sprintf "%s: probability %g" key p)
        (Model.of_key key ~params:[ ("p", Json.Float p) ] ~resources:r))
    [
      ("skip", 1.5); ("A", 2.); ("A", -1.); ("A", nan); ("A", infinity);
      ("skip", nan); ("opcode", nan); ("opcode", neg_infinity);
    ];
  expect_error "negative window"
    (Model.of_key "glitch" ~params:[ ("len", Json.Int (-1)) ] ~resources:r);
  expect_error "glitch below threshold voltage"
    (Model.of_key "glitch" ~params:[ ("drop_mv", Json.Float 400.) ] ~resources:r);
  (match Model.of_key "C" ~params:[ ("bogus", Json.Int 1) ] ~resources:r with
  | Error e ->
    Alcotest.(check string) "parameter for a model that takes none"
      "model C takes no parameters (got \"bogus\")" e
  | Ok _ -> Alcotest.fail "parameter for model C accepted");
  (match Model.of_key "nope" ~resources:r with
  | Error e ->
    Alcotest.(check bool) "unknown model error lists keys" true
      (String.length e > 0
      && String.split_on_char ',' e <> [ e ] (* several keys listed *))
  | Ok _ -> Alcotest.fail "unknown model accepted");
  (* Int literals coerce into Float-typed parameters (CLI convenience). *)
  ignore (ok "int coercion" (Model.of_key "A" ~params:[ ("p", Json.Int 0) ] ~resources:r))

(* ---------- resource providers ---------- *)

(* Each model calls only the provider it uses, once, and no model calls
   one when its parameters are invalid: a bad --model-param never pays
   for STA or characterization. *)
let test_providers_on_demand () =
  let calls = ref (0, 0) in
  let counting =
    {
      (resources ()) with
      Model.endpoint_arrivals =
        (fun () ->
          calls := (fst !calls + 1, snd !calls);
          Lazy.force sta_arrivals);
      db =
        (fun () ->
          calls := (fst !calls, snd !calls + 1);
          Lazy.force char_db);
    }
  in
  let build ?params key =
    calls := (0, 0);
    let r = Model.of_key ?params ~resources:counting key in
    (r, !calls)
  in
  let pair = Alcotest.(pair int int) in
  List.iter
    (fun (key, expected) ->
      let r, used = build key in
      ignore (ok key r);
      Alcotest.check pair (key ^ ": (arrivals, db) calls") expected used)
    [
      ("A", (0, 0)); ("B", (1, 0)); ("B+", (1, 0)); ("C", (0, 1)); ("C-corr", (0, 1));
      ("glitch", (1, 0)); ("skip", (0, 0)); ("opcode", (0, 0)); ("state", (0, 0));
    ];
  let rejected what (r, used) =
    (match r with Ok _ -> Alcotest.failf "%s: accepted" what | Error _ -> ());
    Alcotest.check pair (what ^ ": no provider called") (0, 0) used
  in
  List.iter
    (fun (e : Model.entry) ->
      let key = e.Model.key in
      rejected (key ^ " bogus=1") (build ~params:[ ("bogus", Json.Int 1) ] key))
    Model.entries;
  List.iter
    (fun (key, params) ->
      rejected (key ^ " " ^ Json.to_string (Json.Obj params)) (build ~params key))
    [
      ("A", [ ("p", Json.Float 2.) ]);
      ("glitch", [ ("len", Json.Int (-1)) ]);
      ("glitch", [ ("drop_mv", Json.Float 400.) ]);
      ("glitch", [ ("start", Json.String "x") ]);
      ("skip", [ ("p", Json.Float nan) ]);
      ("state", [ ("flips", Json.Int (-1)) ]);
    ];
  rejected "unknown key" (build "nope");
  (* The default resources carry no timing data: a model that needs it
     fails loudly, naming the input. *)
  match Model.of_key ~resources:Model.default_resources "C" with
  | exception Invalid_argument msg ->
    Alcotest.(check string)
      "default db provider" "Model.default_resources: no DTA characterization database"
      msg
  | _ -> Alcotest.fail "model C built from the default resources"

(* ---------- the declared draw-count contract ---------- *)

(* Wherever an instance declares [skippable_gaussians cls = Some k],
   the hook must return 0 and consume exactly [k] standard-normal
   draws: advancing a twin RNG with [Rng.skip_gaussians] must keep the
   two streams in lockstep. Checked across 500 seeds per model at an
   operating point where both skippable and live classes exist. *)
let test_draw_count_contract () =
  let checked = ref 0 in
  List.iter
    (fun (e : Model.entry) ->
      let key = e.Model.key in
      let m = model key in
      for seed = 1 to 500 do
        let r1 = Rng.of_int seed and r2 = Rng.of_int seed in
        let i1 = Model.instantiate m ~count_obs:false ~freq_mhz:750. ~rng:r1 in
        ignore (Model.instantiate m ~count_obs:false ~freq_mhz:750. ~rng:r2);
        List.iter
          (fun cls ->
            match i1.Model.skippable_gaussians cls with
            | None -> ()
            | Some k ->
              incr checked;
              let a = Rng.bits32 r1 and b = Rng.bits32 r1 in
              ignore (Rng.bits32 r2);
              ignore (Rng.bits32 r2);
              let mask = i1.Model.sample ~cycle:seed ~cls ~a ~b ~result:(a lxor b) in
              Rng.skip_gaussians r2 k;
              if mask <> 0 then
                Alcotest.failf "%s/%s: skippable hook returned mask %08x" key
                  (Op_class.name cls) mask;
              if Rng.bits32 r1 <> Rng.bits32 r2 then
                Alcotest.failf
                  "%s/%s seed %d: declared %d gaussian draw(s), stream diverged" key
                  (Op_class.name cls) seed k)
          Op_class.all
      done)
    Model.entries;
  Alcotest.(check bool)
    (Printf.sprintf "contract exercised (%d skippable hook calls)" !checked)
    true (!checked > 0)

(* [may_inject] must answer for [sample] until its first [true]: on a
   twin instance over a copy of the stream, driven with the same
   (cycle, class) sequence and random operands, [sample] returns 0
   wherever [may_inject] said [false], and the two streams stay in
   lockstep. Checked across 500 seeds per model, below and above the
   STA limit, on increasing cycles that cross glitch's window; A's
   flips and the skip and opcode triggers are made likely enough to
   fire within a sequence. *)
let contract_params = function
  | "A" -> [ ("p", Json.Float 0.01) ]
  | "glitch" -> [ ("start", Json.Int 40); ("len", Json.Int 8) ]
  | "skip" | "opcode" -> [ ("p", Json.Float 0.02) ]
  | "state" -> [ ("flips", Json.Int 4) ]
  | _ -> []

let test_may_inject_contract () =
  let classes = Array.of_list Op_class.all in
  List.iter
    (fun (e : Model.entry) ->
      let key = e.Model.key in
      let m = model ~params:(contract_params key) key in
      let answered_false = ref 0 and answered_true = ref 0 in
      List.iter
        (fun freq_mhz ->
          for seed = 1 to 500 do
            let r1 = Rng.of_int seed in
            let r2 = Rng.copy r1 in
            let probe = Model.instantiate m ~count_obs:false ~freq_mhz ~rng:r1 in
            let real = Model.instantiate m ~count_obs:false ~freq_mhz ~rng:r2 in
            let ops = Rng.of_int (seed + 0x5EED) in
            let cycle = ref 0 and call = ref 0 and stop = ref false in
            while (not !stop) && !call < 80 do
              cycle := !cycle + 1 + Rng.int ops 3;
              let cls = classes.(Rng.int ops (Array.length classes)) in
              let a = Rng.bits32 ops and b = Rng.bits32 ops in
              let may = probe.Model.may_inject ~cycle:!cycle ~cls in
              let mask =
                real.Model.sample ~cycle:!cycle ~cls ~a ~b ~result:(Op_class.apply cls a b)
              in
              if may then begin
                incr answered_true;
                stop := true
              end
              else begin
                incr answered_false;
                if mask <> 0 then
                  Alcotest.failf "%s at %g MHz, seed %d, cycle %d: false, mask %08x" key
                    freq_mhz seed !cycle mask;
                if Rng.bits32 (Rng.copy r1) <> Rng.bits32 (Rng.copy r2) then
                  Alcotest.failf "%s at %g MHz, seed %d, cycle %d: streams diverged" key
                    freq_mhz seed !cycle
              end;
              incr call
            done
          done)
        [ 690.; 750. ];
      Alcotest.(check bool) (key ^ ": answered false") true (!answered_false > 0);
      if key = "state" then
        Alcotest.(check int) "state: never true (its effect is the trial-start edit)" 0
          !answered_true
      else Alcotest.(check bool) (key ^ ": answered true") true (!answered_true > 0))
    Model.entries

let point_equal (p : Campaign.point) (q : Campaign.point) =
  Campaign.Point_json.(to_string (of_point p) = to_string (of_point q))
  && p.Campaign.trials = q.Campaign.trials

(* skip's mask reads the operands and its EX latch, yet the probe's
   trigger question lets it fast-forward like every model: each trial is
   elided or restored, and the point equals full replay. *)
let test_skip_fast_forwards () =
  let bench = Option.get (Registry.by_name "median") in
  let m = model "skip" ~params:[ ("p", Json.Float 0.002) ] in
  Sfi_obs.reset ();
  let p =
    Campaign.run Spec.(default |> with_trials 8 |> with_seed 13) ~bench ~model:m ~freq_mhz:700.
  in
  Alcotest.(check int) "every trial elided or restored" 8 (value c_elided + value c_restores);
  Alcotest.(check bool) "point equals full replay" true
    (point_equal p
       (Sfi_oracle.Ref_campaign.run ~trials:8 ~seed:13 ~bench ~model:m ~freq_mhz:700.))

(* ---------- mixed built-in + attack checkpoint resume ---------- *)

let with_ckpt f =
  let path = Filename.temp_file "sfi-ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let truncate_to_lines path k =
  let lines = String.split_on_char '\n' (read_file path) in
  let kept = List.filteri (fun i _ -> i < k) lines in
  write_file path (String.concat "\n" kept ^ "\n")

let test_mixed_checkpoint_resume () =
  let bench = Option.get (Registry.by_name "median") in
  (* One shared checkpoint file for a built-in and two attack models:
     records are keyed by the model fingerprint, so each sweep must
     find exactly its own batches. The 0.01 target never converges, so
     the schedule is fixed: 2 batches of 8 per model. *)
  let models =
    [
      model "C";
      model "skip" ~params:[ ("p", Json.Float 0.003) ];
      model "glitch" ~params:[ ("start", Json.Int 50); ("drop_mv", Json.Float 80.) ];
    ]
  in
  with_ckpt @@ fun path ->
  let spec =
    Spec.(
      default
      |> with_adaptive ~batch:8 ~max_trials:16 ~ci_target:0.01
      |> with_seed 9 |> with_checkpoint path)
  in
  let full =
    List.map (fun m -> Campaign.run spec ~bench ~model:m ~freq_mhz:760.) models
  in
  (* Kill mid-campaign: keep half the records (2 of 6 batches). *)
  truncate_to_lines path 2;
  Sfi_obs.reset ();
  let resumed =
    List.map (fun m -> Campaign.run spec ~bench ~model:m ~freq_mhz:760.) models
  in
  Alcotest.(check bool) "some batches resumed" true (value c_resumed > 0);
  List.iteri
    (fun i (p, q) ->
      Alcotest.(check bool)
        (Printf.sprintf "model %d resumes bit-identically" i)
        true (point_equal p q))
    (List.combine full resumed)

(* ---------- the guarded-AES attack classifier ---------- *)

let test_aes_classifier () =
  let b = Aes.create () in
  let expected = b.Bench.golden in
  let classify actual = b.Bench.metric ~expected ~actual in
  Alcotest.(check (float 0.)) "golden output is correct" Aes.class_correct
    (classify (Array.copy expected));
  let flagged = Array.copy expected in
  flagged.(0) <- 1;
  Alcotest.(check (float 0.)) "raised flag is detected" Aes.class_detected
    (classify flagged);
  let one_word = Array.copy expected in
  one_word.(2) <- one_word.(2) lxor 0x80;
  Alcotest.(check (float 0.)) "flag clear + one corrupt word is attack success"
    Aes.class_attack_success (classify one_word);
  let two_words = Array.copy expected in
  two_words.(1) <- two_words.(1) lxor 1;
  two_words.(3) <- two_words.(3) lxor 1;
  Alcotest.(check (float 0.)) "flag clear + wider damage is SDC" Aes.class_sdc
    (classify two_words);
  (* Detection dominates: a raised flag is detected even if the
     ciphertext also differs in exactly one word. *)
  let flagged_one = Array.copy one_word in
  flagged_one.(0) <- 1;
  Alcotest.(check (float 0.)) "flag dominates classification" Aes.class_detected
    (classify flagged_one)

let () =
  Alcotest.run "sfi_registry"
    [
      ( "registry",
        [
          Alcotest.test_case "keys and lookup" `Quick test_registry_keys;
          Alcotest.test_case "round trip, every model" `Quick test_round_trip_every_model;
          Alcotest.test_case "round trip, overridden params" `Quick
            test_round_trip_overridden_params;
          Alcotest.test_case "param codec errors" `Quick test_param_codec_errors;
          Alcotest.test_case "providers on demand" `Quick test_providers_on_demand;
        ] );
      ( "contract",
        [
          Alcotest.test_case "draw counts over 500 seeds" `Quick test_draw_count_contract;
          Alcotest.test_case "may_inject over 500 seeds" `Quick test_may_inject_contract;
          Alcotest.test_case "skip fast-forwards" `Quick test_skip_fast_forwards;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "mixed checkpoint resume" `Quick test_mixed_checkpoint_resume;
          Alcotest.test_case "guarded-AES classifier" `Quick test_aes_classifier;
        ] );
    ]
