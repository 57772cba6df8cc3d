(* Tests for the adaptive-precision campaign engine and its
   checkpoint/resume machinery:

   - [Fixed n] specs are pinned deterministic (points and obs
     signatures stable across repeated runs and job counts);
   - adaptive stopping is bit-identical for jobs=1 vs jobs=4;
   - a campaign killed after N batches and rerun from its checkpoint is
     bit-identical to the uninterrupted run, with the resumed trial
     count asserted on the [campaign.resumed_trials] counter;
   - corrupt and truncated checkpoint records are rejected (counted on
     [checkpoint.corrupt_rejected]) and recomputed, still bit-identically. *)

open Sfi_kernels
open Sfi_fi
module Spec = Campaign.Spec

let () = Sfi_obs.set_enabled true

let counter ?det name = Sfi_obs.Counter.make ?det name

let c_trials = counter "campaign.trials"

let c_batches = counter "campaign.batches"

let c_early_stops = counter "campaign.early_stops"

let c_resumed = counter ~det:false "campaign.resumed_trials"

let c_corrupt = counter ~det:false "checkpoint.corrupt_rejected"

let value = Sfi_obs.Counter.value

let with_obs f =
  Sfi_obs.reset ();
  let r = f () in
  (r, Sfi_obs.det_signature ())

let bench = lazy (Median.create ~n:11 ~seed:2 ())

(* Model A needs no netlist or characterization, so these tests stay
   fast; p = 1 makes every trial identical (all 32 bits flip on every
   op), p in (0,1) exercises genuinely stochastic streams. *)
let model_a p = Sfi_core.Flow.model_a ~bit_flip_prob:p

let point_equal (p : Campaign.point) (q : Campaign.point) =
  Campaign.Point_json.(to_string (of_point p) = to_string (of_point q))
  && p.Campaign.trials = q.Campaign.trials

let points_equal ps qs =
  List.length ps = List.length qs && List.for_all2 point_equal ps qs

(* ---------- Fixed specs are deterministic ---------- *)

let test_fixed_pins_deterministic () =
  let bench = Lazy.force bench in
  let model = model_a 0.01 in
  ignore (Campaign.reference_cycles bench : int);
  let spec = Spec.(default |> with_trials 12 |> with_seed 9 |> with_jobs 2) in
  let first, sig_first =
    with_obs (fun () -> Campaign.run spec ~bench ~model ~freq_mhz:707.)
  in
  let again, sig_again =
    with_obs (fun () -> Campaign.run spec ~bench ~model ~freq_mhz:707.)
  in
  Alcotest.(check bool) "points equal" true (point_equal first again);
  Alcotest.(check bool) "det signatures equal" true (sig_first = sig_again);
  let freqs = [ 650.; 707.; 800. ] in
  let spec = Spec.(default |> with_trials 6 |> with_seed 4) in
  let sweep_a, sig_a =
    with_obs (fun () -> Campaign.run_sweep spec ~bench ~model ~freqs_mhz:freqs)
  in
  let sweep_b, sig_b =
    with_obs (fun () ->
        Campaign.run_sweep (Spec.with_jobs 4 spec) ~bench ~model ~freqs_mhz:freqs)
  in
  Alcotest.(check bool) "sweeps equal across job counts" true
    (points_equal sweep_a sweep_b);
  Alcotest.(check bool) "sweep det signatures equal" true (sig_a = sig_b)

let test_fixed_fills_ceiling () =
  let p =
    Campaign.run
      Spec.(default |> with_trials 7)
      ~bench:(Lazy.force bench) ~model:(model_a 0.01) ~freq_mhz:707.
  in
  Alcotest.(check int) "trials" 7 p.Campaign.trials;
  Alcotest.(check int) "trials_requested" 7 p.Campaign.trials_requested;
  Alcotest.(check bool) "interval brackets the rate" true
    (p.Campaign.ci_low <= p.Campaign.correct_rate
    && p.Campaign.correct_rate <= p.Campaign.ci_high)

(* ---------- adaptive stopping ---------- *)

(* p = 1 makes all trials identical, so the Wilson half-widths after one
   8-trial batch (~0.16 for a degenerate rate) decide the outcome alone:
   a 0.3 target stops after the first batch, a 0.01 target escalates to
   the ceiling. *)
let test_adaptive_early_stop () =
  let bench = Lazy.force bench in
  ignore (Campaign.reference_cycles bench : int);
  Sfi_obs.reset ();
  let spec =
    Spec.(default |> with_adaptive ~batch:8 ~max_trials:64 ~ci_target:0.3)
  in
  let p = Campaign.run spec ~bench ~model:(model_a 1.0) ~freq_mhz:707. in
  Alcotest.(check int) "stopped after one batch" 8 p.Campaign.trials;
  Alcotest.(check int) "ceiling recorded" 64 p.Campaign.trials_requested;
  Alcotest.(check int) "early stop counted" 1 (value c_early_stops);
  Alcotest.(check int) "one batch" 1 (value c_batches)

let test_adaptive_escalates_to_ceiling () =
  let bench = Lazy.force bench in
  ignore (Campaign.reference_cycles bench : int);
  Sfi_obs.reset ();
  let spec =
    Spec.(default |> with_adaptive ~batch:8 ~max_trials:24 ~ci_target:0.01)
  in
  let p = Campaign.run spec ~bench ~model:(model_a 1.0) ~freq_mhz:707. in
  Alcotest.(check int) "ran to the ceiling" 24 p.Campaign.trials;
  Alcotest.(check int) "no early stop" 0 (value c_early_stops);
  Alcotest.(check int) "three batches" 3 (value c_batches);
  Alcotest.(check int) "all trials executed" 24 (value c_trials)

let test_adaptive_jobs_determinism () =
  let bench = Lazy.force bench in
  let model = model_a 0.01 in
  ignore (Campaign.reference_cycles bench : int);
  List.iter
    (fun seed ->
      let spec jobs =
        Spec.(
          default
          |> with_adaptive ~batch:4 ~max_trials:32 ~ci_target:0.1
          |> with_seed seed |> with_jobs jobs)
      in
      let serial, sig1 =
        with_obs (fun () -> Campaign.run (spec 1) ~bench ~model ~freq_mhz:707.)
      in
      let pooled, sig4 =
        with_obs (fun () -> Campaign.run (spec 4) ~bench ~model ~freq_mhz:707.)
      in
      if not (point_equal serial pooled) then
        Alcotest.failf "adaptive jobs=1 vs jobs=4 differ at seed %d" seed;
      (* Batch and early-stop counts are in the deterministic signature:
         the pooled run must take the same stopping decisions, not just
         reach the same aggregates. *)
      Alcotest.(check bool)
        (Printf.sprintf "det signatures equal at seed %d" seed)
        true (sig1 = sig4))
    [ 1; 7; 42 ]

(* ---------- checkpoint / resume ---------- *)

let with_ckpt f =
  let path = Filename.temp_file "sfi-ckpt" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* Keeps only the first [k] lines — the on-disk state of a run killed
   after its k-th batch record was written. *)
let truncate_to_lines path k =
  let lines = String.split_on_char '\n' (read_file path) in
  let kept = List.filteri (fun i _ -> i < k) lines in
  write_file path (String.concat "\n" kept ^ "\n")

(* An adaptive spec whose 0.01 target never converges, so the batch
   schedule is fixed: 4 batches of 8. Stochastic model so batches carry
   distinct data. *)
let ckpt_spec path =
  Spec.(
    default
    |> with_adaptive ~batch:8 ~max_trials:32 ~ci_target:0.01
    |> with_seed 5 |> with_checkpoint path)

let test_checkpoint_kill_and_resume () =
  let bench = Lazy.force bench in
  let model = model_a 0.01 in
  ignore (Campaign.reference_cycles bench : int);
  with_ckpt @@ fun path ->
  Sfi_obs.reset ();
  let full = Campaign.run (ckpt_spec path) ~bench ~model ~freq_mhz:707. in
  Alcotest.(check int) "uninterrupted run computed everything" 32 (value c_trials);
  Alcotest.(check int) "nothing resumed" 0 (value c_resumed);
  (* Simulate a kill after two completed batches. *)
  truncate_to_lines path 2;
  Sfi_obs.reset ();
  let resumed = Campaign.run (ckpt_spec path) ~bench ~model ~freq_mhz:707. in
  Alcotest.(check bool) "resumed point bit-identical" true (point_equal full resumed);
  Alcotest.(check int) "two batches resumed" 16 (value c_resumed);
  Alcotest.(check int) "two batches recomputed" 16 (value c_trials);
  (* The rerun re-appended the missing batches: a third run resumes
     everything and executes zero trials. *)
  Sfi_obs.reset ();
  let warm = Campaign.run (ckpt_spec path) ~bench ~model ~freq_mhz:707. in
  Alcotest.(check bool) "warm point bit-identical" true (point_equal full warm);
  Alcotest.(check int) "everything resumed" 32 (value c_resumed);
  Alcotest.(check int) "zero trials executed" 0 (value c_trials)

let test_checkpoint_corrupt_record_recomputed () =
  let bench = Lazy.force bench in
  let model = model_a 0.01 in
  ignore (Campaign.reference_cycles bench : int);
  with_ckpt @@ fun path ->
  let full = Campaign.run (ckpt_spec path) ~bench ~model ~freq_mhz:707. in
  (* Flip one byte in the middle of the first record: the CRC trailer
     (or the JSON parse) must reject the line. *)
  let content = read_file path in
  let first_nl = String.index content '\n' in
  let b = Bytes.of_string content in
  Bytes.set b (first_nl / 2) (Char.chr (Char.code (Bytes.get b (first_nl / 2)) lxor 0x20));
  write_file path (Bytes.to_string b);
  Sfi_obs.reset ();
  let resumed = Campaign.run (ckpt_spec path) ~bench ~model ~freq_mhz:707. in
  Alcotest.(check bool) "corruption detected" true (value c_corrupt >= 1);
  Alcotest.(check bool) "corrupt batch recomputed" true (value c_trials >= 8);
  Alcotest.(check int) "intact batches resumed" 24 (value c_resumed);
  Alcotest.(check bool) "point still bit-identical" true (point_equal full resumed)

let test_checkpoint_torn_tail_recomputed () =
  let bench = Lazy.force bench in
  let model = model_a 0.01 in
  ignore (Campaign.reference_cycles bench : int);
  with_ckpt @@ fun path ->
  let full = Campaign.run (ckpt_spec path) ~bench ~model ~freq_mhz:707. in
  (* A kill mid-write leaves a torn final line: cut the file in the
     middle of the last record. *)
  let content = read_file path in
  write_file path (String.sub content 0 (String.length content - 10));
  Sfi_obs.reset ();
  let resumed = Campaign.run (ckpt_spec path) ~bench ~model ~freq_mhz:707. in
  Alcotest.(check bool) "torn line counted" true (value c_corrupt >= 1);
  Alcotest.(check int) "three intact batches resumed" 24 (value c_resumed);
  Alcotest.(check bool) "point still bit-identical" true (point_equal full resumed)

let test_checkpoint_sweep_resume () =
  let bench = Lazy.force bench in
  let model = model_a 0.01 in
  let freqs = [ 650.; 707.; 800. ] in
  ignore (Campaign.reference_cycles bench : int);
  with_ckpt @@ fun path ->
  let full = Campaign.run_sweep (ckpt_spec path) ~bench ~model ~freqs_mhz:freqs in
  (* Kill mid-sweep: keep roughly the first half of the records (which
     may interleave frequencies — records are keyed, not ordered). *)
  truncate_to_lines path 5;
  Sfi_obs.reset ();
  let resumed = Campaign.run_sweep (ckpt_spec path) ~bench ~model ~freqs_mhz:freqs in
  Alcotest.(check bool) "sweep resumes bit-identically" true
    (points_equal full resumed);
  Alcotest.(check int) "five batches resumed" 40 (value c_resumed)

(* A checkpoint written under one seed must never be consumed by a run
   with another: the content key includes the seed. *)
let test_checkpoint_keyed_by_seed () =
  let bench = Lazy.force bench in
  let model = model_a 0.01 in
  ignore (Campaign.reference_cycles bench : int);
  with_ckpt @@ fun path ->
  ignore (Campaign.run (ckpt_spec path) ~bench ~model ~freq_mhz:707.);
  Sfi_obs.reset ();
  let other = Spec.with_seed 6 (ckpt_spec path) in
  let clean = Campaign.run (Spec.without_checkpoint other) ~bench ~model ~freq_mhz:707. in
  let with_foreign = Campaign.run other ~bench ~model ~freq_mhz:707. in
  Alcotest.(check int) "no foreign record consumed" 0 (value c_resumed);
  Alcotest.(check bool) "result unaffected by foreign records" true
    (point_equal clean with_foreign)

let () =
  Alcotest.run "sfi_adaptive"
    [
      ( "spec",
        [
          Alcotest.test_case "fixed specs deterministic" `Quick test_fixed_pins_deterministic;
          Alcotest.test_case "fixed fills ceiling" `Quick test_fixed_fills_ceiling;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "early stop" `Quick test_adaptive_early_stop;
          Alcotest.test_case "escalates to ceiling" `Quick
            test_adaptive_escalates_to_ceiling;
          Alcotest.test_case "jobs determinism" `Quick test_adaptive_jobs_determinism;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill and resume" `Quick test_checkpoint_kill_and_resume;
          Alcotest.test_case "corrupt record recomputed" `Quick
            test_checkpoint_corrupt_record_recomputed;
          Alcotest.test_case "torn tail recomputed" `Quick
            test_checkpoint_torn_tail_recomputed;
          Alcotest.test_case "sweep resume" `Quick test_checkpoint_sweep_resume;
          Alcotest.test_case "keyed by seed" `Quick test_checkpoint_keyed_by_seed;
        ] );
    ]
