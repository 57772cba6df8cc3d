(* Snapshot fast-forward is the campaign's trial engine. These tests pin
   it against the full-replay reference point ([Sfi_oracle.Ref_campaign],
   every trial simulated from cycle 0) and pin the sfi-snap/1 cache
   codec.

   - every registered model on every registry kernel produces the
     reference's trial array; models the probe supports elide or
     restore every trial, cycle-dependent ones fall back (counted on
     fastforward.model_unsupported);
   - a benchmark whose reference run traps has no trace and falls back
     to full replay, counted on fastforward.no_trace;
   - mostly-fault-free operating points actually elide trials
     (fastforward.trials_elided) and still match full replay;
   - jobs=1 and jobs=4 agree under fast-forward, on a model-A point
     and a model-C sweep (points and det signatures);
   - a checkpointed sweep, and the same sweep killed mid-run and
     resumed from its records, equal the reference points;
   - sfi-snap/1 entries survive round-trips and reject corruption,
     truncation and version bumps (counted on cache.corrupt_rejected),
     falling back to re-recording; cold and warm runs keep identical
     det signatures. *)

open Sfi_sim
open Sfi_kernels
open Sfi_fi
module Spec = Campaign.Spec
module Ref_campaign = Sfi_oracle.Ref_campaign

let () = Sfi_obs.set_enabled true

let c_elided = Sfi_obs.Counter.make ~det:false "fastforward.trials_elided"

let c_restores = Sfi_obs.Counter.make ~det:false "fastforward.restores"

let c_unsupported = Sfi_obs.Counter.make ~det:false "fastforward.model_unsupported"

let c_no_trace = Sfi_obs.Counter.make ~det:false "fastforward.no_trace"

let c_resumed = Sfi_obs.Counter.make ~det:false "campaign.resumed_trials"

let c_corrupt = Sfi_obs.Counter.make ~det:false "cache.corrupt_rejected"

let value = Sfi_obs.Counter.value

let with_obs f =
  Sfi_obs.reset ();
  let r = f () in
  (r, Sfi_obs.det_signature ())

let model_a p = Sfi_core.Flow.model_a ~bit_flip_prob:p

let point_equal (p : Campaign.point) (q : Campaign.point) =
  Campaign.Point_json.(to_string (of_point p) = to_string (of_point q))
  && p.Campaign.trials = q.Campaign.trials

let points_equal ps qs =
  List.length ps = List.length qs && List.for_all2 point_equal ps qs

(* [compare], not [=]: an unfinished trial's error is nan. *)
let trials_equal (a : Campaign.trial array) b = compare a b = 0

let spec ~trials ~seed = Spec.(default |> with_trials trials |> with_seed seed)

let flow_400 =
  lazy
    (Sfi_core.Flow.create
       ~config:{ Sfi_core.Flow.default_config with Sfi_core.Flow.char_cycles = 400 }
       ())

(* ---------- fast-forward vs full replay ---------- *)

(* Just past the STA limit every paper model can fault and the attack
   families fire on their defaults, so 4 trials per point already mix
   elided, restored and fully replayed trials. *)
let test_parity_models_kernels () =
  let flow = Lazy.force flow_400 in
  let freq_mhz = Sfi_core.Flow.sta_limit_mhz flow ~vdd:0.7 *. 1.02 in
  List.iter
    (fun (e : Model.Registry.entry) ->
      let key = e.Model.Registry.key in
      let model =
        match Sfi_core.Flow.model_by_key flow ~key ~vdd:0.7 ~sigma:0.010 with
        | Ok m -> m
        | Error msg -> Alcotest.failf "model %s: %s" key msg
      in
      List.iter
        (fun name ->
          let bench = Option.get (Registry.by_name name) in
          let what = Printf.sprintf "%s on %s" key name in
          Sfi_obs.reset ();
          let _, trials =
            Campaign.run_detailed
              Spec.(spec ~trials:4 ~seed:11 |> with_jobs 2)
              ~bench ~model ~freq_mhz
          in
          let fast_forwarded = value c_elided + value c_restores in
          let unsupported = value c_unsupported in
          let _, expect = Ref_campaign.run_detailed ~trials:4 ~seed:11 ~bench ~model ~freq_mhz in
          Alcotest.(check bool) (what ^ ": trials equal full replay") true
            (trials_equal trials expect);
          if Model.cycle_dependent model then
            Alcotest.(check bool) (what ^ ": fallback counted") true (unsupported > 0)
          else
            Alcotest.(check int) (what ^ ": every trial elided or restored") 4 fast_forwarded)
        Registry.names)
    (Model.Registry.entries ())

(* [Campaign] never validates its benchmark, so a program whose
   reference run traps reaches it: it records no trace, and the point
   must fall back to full replay, counted. *)
let trapping_bench =
  let open Sfi_isa in
  let program =
    Program.of_insns
      Insn.
        [
          Nop nop_kernel_begin;
          Addi (1, 0, 40);
          Mul (2, 1, 1);
          Add (3, 2, 1);
          Addi (1, 1, -1);
          Sfi (Ne, 1, 0);
          Bf (-4);
          (* a misaligned word load traps instead of exiting *)
          Lwz (4, 0x202, 0);
          Nop nop_exit;
        ]
  in
  {
    Bench.name = "trapping";
    bench_type = "test";
    compute_rating = "low";
    control_rating = "low";
    size_desc = "40 iterations";
    program;
    mem_size = 4096;
    output_addr = 0x200;
    output_count = 1;
    golden = [| Sfi_util.U32.of_int 0 |];
    metric_name = "none";
    metric = (fun ~expected:_ ~actual:_ -> 0.);
  }

let test_no_trace_falls_back () =
  let model = model_a 0.01 in
  let stats, _ = Bench.run_fault_free trapping_bench in
  Alcotest.(check bool) "reference run traps" true
    (match stats.Cpu.outcome with Cpu.Trapped _ -> true | _ -> false);
  Sfi_obs.reset ();
  let p = Campaign.run (spec ~trials:8 ~seed:5) ~bench:trapping_bench ~model ~freq_mhz:700. in
  Alcotest.(check bool) "fallback counted" true (value c_no_trace > 0);
  Alcotest.(check bool) "point equals full replay" true
    (point_equal p
       (Ref_campaign.run ~trials:8 ~seed:5 ~bench:trapping_bench ~model ~freq_mhz:700.))

(* At a rare-fault operating point most trials are provably fault-free:
   fast-forward must elide them (no simulation at all) and still agree
   with full replay bit for bit. Second input: a glitch offset scan on
   aes shaped like the attack experiment's (len 2, 60 mV, 0.98 x f_STA).
   Glitch draws nothing and its mask depends on the cycle alone, which
   the probe replays from the recorded schedule, so a window that
   catches an ALU op in the kernel restores and one that does not
   elides. *)
let test_elision_parity () =
  let bench = Option.get (Registry.by_name "median") in
  let model = model_a 2e-7 in
  Sfi_obs.reset ();
  let p = Campaign.run (spec ~trials:24 ~seed:3) ~bench ~model ~freq_mhz:700. in
  let elided = value c_elided and restores = value c_restores in
  Alcotest.(check bool) "point equals full replay" true
    (point_equal p (Ref_campaign.run ~trials:24 ~seed:3 ~bench ~model ~freq_mhz:700.));
  Alcotest.(check bool) "some trials elided" true (elided > 0);
  Alcotest.(check int) "elided + restored = trials" 24 (elided + restores);
  let flow = Lazy.force flow_400 in
  let freq_mhz = Sfi_core.Flow.sta_limit_mhz flow ~vdd:0.7 *. 0.98 in
  let aes = Option.get (Registry.by_name "aes") in
  let ref_cycles = Campaign.reference_cycles aes in
  let scan = 8 in
  Sfi_obs.reset ();
  for i = 0 to scan - 1 do
    let start = ref_cycles * (2 + (6 * i)) / (6 * scan) in
    let params =
      Sfi_obs.Json.[ ("start", Int start); ("len", Int 2); ("drop_mv", Float 60.) ]
    in
    let model =
      match Sfi_core.Flow.model_by_key ~params flow ~key:"glitch" ~vdd:0.7 ~sigma:0.010 with
      | Ok m -> m
      | Error msg -> Alcotest.failf "glitch: %s" msg
    in
    let _, trials = Campaign.run_detailed (spec ~trials:2 ~seed:11) ~bench:aes ~model ~freq_mhz in
    let _, expect = Ref_campaign.run_detailed ~trials:2 ~seed:11 ~bench:aes ~model ~freq_mhz in
    Alcotest.(check bool)
      (Printf.sprintf "glitch at cycle %d: trials equal full replay" start)
      true (trials_equal trials expect)
  done;
  Alcotest.(check int) "glitch: no fallback" 0 (value c_unsupported);
  Alcotest.(check int) "glitch: elided + restored = trials" (2 * scan)
    (value c_elided + value c_restores);
  Alcotest.(check bool) "glitch: some trials restored" true (value c_restores > 0)

(* Model C drives the probe's draw-batching fast path: classes proved
   fault-free by the per-class worst-case bound are jumped over with
   [Rng.skip_gaussians] instead of replayed draw by draw. Just below
   the STA limit faults are possible only through noise, so the
   schedule is dominated by skippable entries — exactly the regime the
   batching must leave bit-identical. *)
let test_model_c_parity () =
  let flow = Lazy.force flow_400 in
  let model = Sfi_core.Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let freq = Sfi_core.Flow.sta_limit_mhz flow ~vdd:0.7 *. 0.999 in
  let bench = Option.get (Registry.by_name "median") in
  Sfi_obs.reset ();
  let p = Campaign.run (spec ~trials:12 ~seed:17) ~bench ~model ~freq_mhz:freq in
  let elided = value c_elided and restores = value c_restores in
  Alcotest.(check bool) "model C point equals full replay" true
    (point_equal p (Ref_campaign.run ~trials:12 ~seed:17 ~bench ~model ~freq_mhz:freq));
  Alcotest.(check int) "every trial elided or restored" 12 (elided + restores)

(* [Registry.by_name ~seed] builds same-named benchmarks from different
   input data, so the in-process reference-cycle and trace memos must
   key on the image, not the name: a seed-2 point run after a seed-1
   point needs its own watchdog budget and its own snapshots. Keyed by
   name, the seed-2 point replayed seed 1's reference run
   (correct_rate 0.0 against full replay's 0.75 on kmeans, 0.0 against
   1.0 on dijkstra). *)
let test_same_name_distinct_images () =
  let flow = Lazy.force flow_400 in
  let model = Sfi_core.Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let freq = Sfi_core.Flow.sta_limit_mhz flow ~vdd:0.7 *. 1.02 in
  let spec = Spec.(spec ~trials:8 ~seed:3 |> with_jobs 1) in
  List.iter
    (fun name ->
      let bench seed = Option.get (Registry.by_name ~seed name) in
      let b1 = bench 1 and b2 = bench 2 in
      ignore (Campaign.run spec ~bench:b1 ~model ~freq_mhz:freq : Campaign.point);
      let stats2, _ = Bench.run_fault_free b2 in
      Alcotest.(check int)
        (name ^ ": seed-2 reference cycles")
        stats2.Cpu.cycles (Campaign.reference_cycles b2);
      Alcotest.(check bool)
        (name ^ ": seed-2 point equals full replay")
        true
        (point_equal
           (Campaign.run spec ~bench:b2 ~model ~freq_mhz:freq)
           (Ref_campaign.run ~trials:8 ~seed:3 ~bench:b2 ~model ~freq_mhz:freq)))
    [ "kmeans"; "dijkstra" ]

(* Two inputs: one model-A point, and a model-C sweep from the STA
   limit into deep failure, where trials mix elided, restored and
   faulting runs. *)
let test_jobs_parity () =
  let check what run =
    let p1, sig1 = with_obs (fun () -> run 1) in
    let p4, sig4 = with_obs (fun () -> run 4) in
    Alcotest.(check bool) (what ^ ": jobs=1 vs jobs=4 points equal") true (points_equal p1 p4);
    Alcotest.(check bool) (what ^ ": jobs=1 vs jobs=4 det signatures equal") true (sig1 = sig4)
  in
  let median = Option.get (Registry.by_name "median") in
  let median_17 = Median.create ~n:17 () in
  check "model A point" (fun jobs ->
      [
        Campaign.run
          Spec.(spec ~trials:16 ~seed:7 |> with_jobs jobs)
          ~bench:median ~model:(model_a 0.004) ~freq_mhz:720.;
      ]);
  let flow = Lazy.force flow_400 in
  let fsta = Sfi_core.Flow.sta_limit_mhz flow ~vdd:0.7 in
  let model = Sfi_core.Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  check "model C sweep" (fun jobs ->
      Campaign.run_sweep
        Spec.(default |> with_trials 8 |> with_jobs jobs)
        ~bench:median_17 ~model
        ~freqs_mhz:(List.map (fun r -> fsta *. r) [ 1.02; 1.10; 1.18; 1.26 ]))

(* ---------- checkpoints ---------- *)

let with_ckpt f =
  let path = Filename.temp_file "sfi-ff-ckpt" ".jsonl" in
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

(* A non-converging adaptive spec: the batch schedule is fixed at 4
   batches of 6, so truncation points are predictable, and the point
   runs exactly the 24 trials of the full-replay reference. *)
let ckpt_spec path =
  Spec.(
    default
    |> with_adaptive ~batch:6 ~max_trials:24 ~ci_target:0.01
    |> with_seed 5 |> with_checkpoint path)

let test_checkpoint_kill_resume () =
  let bench = Option.get (Registry.by_name "median") in
  let model = model_a 0.004 in
  let freqs = [ 680.; 740. ] in
  let expect =
    List.map (fun freq_mhz -> Ref_campaign.run ~trials:24 ~seed:5 ~bench ~model ~freq_mhz) freqs
  in
  with_ckpt @@ fun path ->
  let clean = Campaign.run_sweep (ckpt_spec path) ~bench ~model ~freqs_mhz:freqs in
  (* the on-disk state of a sweep killed after 3 batches *)
  truncate_to_lines path 3;
  Sfi_obs.reset ();
  let resumed = Campaign.run_sweep (ckpt_spec path) ~bench ~model ~freqs_mhz:freqs in
  Alcotest.(check int) "3 batches of 6 resumed" 18 (value c_resumed);
  Alcotest.(check bool) "checkpointed sweep equals full replay" true
    (points_equal clean expect);
  Alcotest.(check bool) "resumed sweep equals full replay" true
    (points_equal resumed expect)

(* ---------- sfi-snap/1 cache robustness ---------- *)

let seq = ref 0

let with_temp_cache f =
  incr seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sfi-ff-cache.%d.%d" (Unix.getpid ()) !seq)
  in
  Sfi_cache.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      ignore (Sfi_cache.prune ~all:true ~dir () : int);
      (try Unix.rmdir dir with Unix.Unix_error _ -> () | Sys_error _ -> ());
      Sfi_cache.set_dir None)
    (fun () -> f dir)

let the_entry dir =
  match Sfi_cache.scan ~dir with
  | [ e ] -> e
  | es -> Alcotest.failf "expected exactly one entry, scan found %d" (List.length es)

let corrupt_byte path pos =
  let content = read_file path in
  let pos = if pos < String.length content then pos else String.length content / 2 in
  let b = Bytes.of_string content in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  write_file path (Bytes.to_string b)

(* Strides are distinct per test: the in-process memo is keyed by
   (bench, stride), so a fresh stride forces a fresh recording (and a
   fresh disk entry) regardless of test order. *)
let bench_for_cache = lazy (Option.get (Registry.by_name "median"))

let load_trace ~key = (Sfi_cache.load ~namespace:"snap" ~key : Fastforward.trace option)

let test_snap_corruption_rejected () =
  with_temp_cache @@ fun dir ->
  let bench = Lazy.force bench_for_cache in
  Alcotest.(check bool) "trace recorded" true
    (Fastforward.trace_for ~bench ~stride:37 <> None);
  let e = the_entry dir in
  Alcotest.(check string) "namespace" "snap" e.Sfi_cache.namespace;
  Alcotest.(check bool) "entry loads" true (load_trace ~key:e.Sfi_cache.key <> None);
  let path = Filename.concat dir e.Sfi_cache.file in
  corrupt_byte path 64;
  let r0 = value c_corrupt in
  Alcotest.(check bool) "corrupt entry rejected" true
    (load_trace ~key:e.Sfi_cache.key = None);
  Alcotest.(check int) "rejection counted" (r0 + 1) (value c_corrupt);
  Alcotest.(check bool) "bad file removed" false (Sys.file_exists path);
  (* a fresh stride re-records and repopulates the cache *)
  Alcotest.(check bool) "re-recorded" true
    (Fastforward.trace_for ~bench ~stride:41 <> None);
  Alcotest.(check bool) "repopulated" true
    (load_trace ~key:(the_entry dir).Sfi_cache.key <> None)

let test_snap_truncation_rejected () =
  with_temp_cache @@ fun dir ->
  let bench = Lazy.force bench_for_cache in
  ignore (Fastforward.trace_for ~bench ~stride:53 : Fastforward.trace option);
  let e = the_entry dir in
  let path = Filename.concat dir e.Sfi_cache.file in
  let content = read_file path in
  List.iter
    (fun keep ->
      write_file path (String.sub content 0 keep);
      Alcotest.(check bool)
        (Printf.sprintf "truncated to %d bytes rejected" keep)
        true
        (load_trace ~key:e.Sfi_cache.key = None);
      write_file path content)
    [ 0; 4; 11; 20; String.length content - 1 ]

let test_snap_version_bump_rejected () =
  with_temp_cache @@ fun dir ->
  let bench = Lazy.force bench_for_cache in
  ignore (Fastforward.trace_for ~bench ~stride:71 : Fastforward.trace option);
  let e = the_entry dir in
  (* byte 7 is the low byte of the big-endian schema version *)
  corrupt_byte (Filename.concat dir e.Sfi_cache.file) 7;
  Alcotest.(check bool) "bumped version rejected" true
    (load_trace ~key:e.Sfi_cache.key = None)

let test_cold_warm_det_signature () =
  with_temp_cache @@ fun _dir ->
  let bench = Option.get (Registry.by_name "mat_mult_8bit") in
  let model = model_a 0.006 in
  let spec = spec ~trials:8 ~seed:13 in
  let cold, sig_cold =
    with_obs (fun () -> Campaign.run spec ~bench ~model ~freq_mhz:710.)
  in
  let warm, sig_warm =
    with_obs (fun () -> Campaign.run spec ~bench ~model ~freq_mhz:710.)
  in
  Alcotest.(check bool) "cold/warm points equal" true (point_equal cold warm);
  Alcotest.(check bool) "cold/warm det signatures equal" true (sig_cold = sig_warm)

let () =
  Alcotest.run "fastforward"
    [
      ( "parity",
        [
          Alcotest.test_case "every model x kernel vs replay" `Quick
            test_parity_models_kernels;
          Alcotest.test_case "no trace falls back, counted" `Quick test_no_trace_falls_back;
          Alcotest.test_case "rare faults elide trials" `Quick test_elision_parity;
          Alcotest.test_case "model C batched probe" `Quick test_model_c_parity;
          Alcotest.test_case "same name, distinct images" `Quick
            test_same_name_distinct_images;
          Alcotest.test_case "jobs=1 vs jobs=4" `Quick test_jobs_parity;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "killed sweep resumes to replay" `Quick
            test_checkpoint_kill_resume;
        ] );
      ( "snap-cache",
        [
          Alcotest.test_case "corruption rejected" `Quick test_snap_corruption_rejected;
          Alcotest.test_case "truncation rejected" `Quick test_snap_truncation_rejected;
          Alcotest.test_case "version bump rejected" `Quick
            test_snap_version_bump_rejected;
          Alcotest.test_case "cold/warm det signature" `Quick
            test_cold_warm_det_signature;
        ] );
    ]
