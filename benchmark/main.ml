(* End-to-end benchmark of the SFI reproduction; see README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--record FILE]
     main.exe --compare BASE.jsonl NEW.jsonl
     main.exe --smoke

   A run prints a human-readable summary and, as its last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
   --trace 1. *)

open Sfi_util
module Json = Sfi_obs.Json

let jobs = 2

let decl_file = "BENCHMARK.json"

let expected_dir = Filename.concat "benchmark" "expected"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit 1) fmt

(* ---------- BENCHMARK.json ---------- *)

type decl = { d_name : string; d_unit : string; lower_better : bool; bound : float }

let read_json path =
  try Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Sys_error e -> fail "%s" e
  | Json.Parse_error e -> fail "%s: %s" path e

let str_field name j =
  match Option.bind (Json.member name j) Json.to_string_opt with
  | Some s -> s
  | None -> fail "%s: missing string field %S" decl_file name

let declared section =
  match Json.member section (read_json decl_file) with
  | Some (Json.List items) ->
    List.map
      (fun m ->
        {
          d_name = str_field "name" m;
          d_unit = str_field "unit" m;
          lower_better = str_field "better" m = "lower";
          bound = Option.value ~default:nan (Option.bind (Json.member "bound" m) Json.to_float);
        })
      items
  | _ -> fail "%s: no %S list" decl_file section

(* ---------- environment ---------- *)

(* The benchmark measures the library defaults a user gets, so no SFI_*
   variable may steer the run. *)
let check_env () =
  let sfi =
    List.filter (String.starts_with ~prefix:"SFI_") (Array.to_list (Unix.environment ()))
  in
  if sfi <> [] then begin
    prerr_endline
      ("benchmark: unset these variables first; the benchmark measures the defaults: "
      ^ String.concat " " sfi);
    exit 2
  end

let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let rev = Option.value ~default:"unknown" (In_channel.input_line ic) in
    ignore (Unix.close_process_in ic : Unix.process_status);
    rev

let env_json () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int jobs);
      ("ocaml", Json.String Sys.ocaml_version);
      ("rev", Json.String (git_rev ()));
    ]

(* ---------- correctness ---------- *)

type checks = { mutable attempted : int; mutable failed : int }

let check c ok =
  c.attempted <- c.attempted + 1;
  if not ok then c.failed <- c.failed + 1

let row_digests rows =
  List.map
    (fun (label, units) -> (label, Digest.to_hex (Digest.string (String.concat "\n" units))))
    rows

(* Reference row digests committed for seeds 1-3 at full scale. *)
let expected_rows (w : Workloads.t) ~seed =
  let path = Filename.concat expected_dir (w.Workloads.name ^ ".json") in
  if not (Sys.file_exists path) then None
  else
    match Json.member (string_of_int seed) (read_json path) with
    | Some (Json.Obj rows) ->
      Some
        (List.map (fun (label, d) -> (label, Option.value ~default:"" (Json.to_string_opt d))) rows)
    | _ -> None

(* Each rep's rows must match the reference digests (the committed ones,
   else the warm-up rep's), and the row pairs the workload declares must
   agree. *)
let check_rep c (w : Workloads.t) ~reference rows =
  List.iter
    (fun (label, d) -> check c (List.assoc_opt label reference = Some d))
    (row_digests rows);
  List.iter
    (fun (a, b) -> check c (List.assoc_opt a rows = List.assoc_opt b rows && List.mem_assoc a rows))
    w.Workloads.agree

(* Without committed digests, every 4th unit is recomputed at jobs = 1. *)
let check_recomputed c (p : Workloads.prepared) warmup_rows =
  let units = Array.of_list (List.concat_map snd warmup_rows) in
  Array.iteri (fun i u -> if i mod 4 = 0 then check c (p.Workloads.recompute i = u)) units

(* ---------- one run ---------- *)

type settings = {
  scale : Workloads.scale;
  layer_params : Layers.params;
  min_reps : int;
  seconds : float;
}

let full ~seconds =
  {
    scale = Workloads.full;
    layer_params = Layers.full;
    min_reps = 3;
    seconds;
  }

let smoke =
  {
    scale = Workloads.smoke;
    layer_params = Layers.smoke;
    min_reps = 1;
    seconds = 0.;
  }

type outcome = {
  checks : checks;
  metrics : (string * float * string) list;
  summary : string list;
}

let with_cache_dir dir f =
  Sfi_cache.set_dir (Some dir);
  Fun.protect ~finally:(fun () -> Sfi_cache.set_dir None) f

let rep (p : Workloads.prepared) ~jobs:j =
  Gc.compact ();
  Pool.set_default_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs jobs) (fun () -> p.Workloads.run ~jobs:j)

(* Checks the warm-up rep and returns its row digests and the reference
   digests the timed reps must match. *)
let reference_rows c (w : Workloads.t) ~expected (p : Workloads.prepared) warmup =
  let warmup_rows = warmup.Workloads.rows () in
  let digests = row_digests warmup_rows in
  match expected with
  | Some rows ->
    check_rep c w ~reference:rows warmup_rows;
    (digests, rows)
  | None ->
    check_recomputed c p warmup_rows;
    (digests, digests)

let rows_line digests =
  "  rows: " ^ Json.to_string (Json.Obj (List.map (fun (l, d) -> (l, Json.String d)) digests))

let stat_line name unit xs =
  let q1, q3 = Measure.quartiles xs in
  Printf.sprintf "  %-16s %12.6g %-8s median of %d, quartiles [%.6g, %.6g], samples %s" name
    (Measure.median xs) unit (List.length xs) q1 q3
    (String.concat " " (List.map (Printf.sprintf "%.4g") xs))

(* Cycles one rep simulates: ISS kernel cycles over the trials the
   campaigns report, plus gate-level characterization cycles. Results are
   bit-identical from rep to rep, so so are these counts; counting them
   needs obs on, which the warm-up rep can afford. *)
let simulated_cycles () =
  List.fold_left
    (fun acc e ->
      match (e.Sfi_obs.entry_name, e.Sfi_obs.entry_value) with
      | "campaign.trial_kernel_cycles", Sfi_obs.Hist_v h -> acc + h.sum
      | "characterize.trials", Sfi_obs.Counter_v n -> acc + n
      | _ -> acc)
    0 (Sfi_obs.snapshot ())

(* The untraced run:
   - a warm-up set-up and one warm-up rep on it, with obs on to count
     the rep's simulated cycles. This is what a single CLI run does, so
     the memory high-water mark is read here, before later phases grow
     the heap (OCaml 5.1 never shrinks it). The set-up also fills the
     private cache the warm loads read.
   - Then, until [seconds] have passed: a timed set-up, a timed warm load
     (when the set-up characterizes) and a timed rep on that set-up.
     Interleaving spreads each metric's samples over the whole run, so a
     few seconds of contention from other tenants of the host touch few
     samples of each median. *)
let untraced s (w : Workloads.t) ~seed ~expected =
  let c = { attempted = 0; failed = 0 } in
  let cache_dir = Scratch.fresh_dir "cache" in
  Fun.protect ~finally:(fun () -> Scratch.remove cache_dir) @@ fun () ->
  let p0 = with_cache_dir cache_dir (fun () -> w.Workloads.setup s.scale ~seed) in
  Sfi_obs.reset ();
  Sfi_obs.set_enabled true;
  let warmup =
    Fun.protect ~finally:(fun () -> Sfi_obs.set_enabled false) (fun () -> rep p0 ~jobs)
  in
  let cycles = simulated_cycles () in
  let rss = Measure.peak_rss_mb () in
  let digests, reference = reference_rows c w ~expected p0 warmup in
  let t0 = Measure.now () in
  let rec loop n acc =
    if n >= s.min_reps && Measure.now () -. t0 >= s.seconds then List.rev acc
    else begin
      Gc.compact ();
      let p, setup_t = Measure.timed (fun () -> w.Workloads.setup s.scale ~seed) in
      let warm_t =
        match p.Workloads.warm_load with
        | None -> []
        | Some load ->
          Gc.compact ();
          let same, t = with_cache_dir cache_dir (fun () -> Measure.timed load) in
          check c (same ());
          [ t ]
      in
      let r = rep p ~jobs in
      check_rep c w ~reference (r.Workloads.rows ());
      loop (n + 1) ((setup_t, warm_t, r) :: acc)
    end
  in
  let samples = loop 0 [] in
  let setup_times = List.map (fun (t, _, _) -> t) samples in
  let reps = List.map (fun (_, _, r) -> r) samples in
  let warm =
    List.concat_map (fun (_, w, (r : Workloads.result)) -> w @ r.Workloads.warm_s) samples
  in
  let walls = List.map (fun (r : Workloads.result) -> r.Workloads.wall_s) reps in
  let rate n = List.map (fun (r : Workloads.result) -> float_of_int n /. r.Workloads.wall_s) reps in
  let trials = warmup.Workloads.trials in
  {
    checks = c;
    metrics =
      [
        ("setup_s", Measure.median setup_times, "s");
        ("cycles_per_s", Measure.median (rate cycles), "1/s");
        ("warm_load_s", Measure.median warm, "s");
        ("peak_rss_mb", rss, "MB");
      ];
    summary =
      [
        Printf.sprintf "  per rep: %d trials, %d simulated cycles; %d timed rounds after 1 warm-up"
          trials cycles (List.length reps);
        stat_line "setup_s" "s" setup_times;
        stat_line "cycles_per_s" "1/s" (rate cycles);
        stat_line "warm_load_s" "s" warm;
        Printf.sprintf "  %-16s %12.6g %-8s high-water mark after set-up and one rep" "peak_rss_mb"
          rss "MB";
        stat_line "(wall per rep)" "s" walls;
        stat_line "(trials/s)" "1/s" (rate trials);
        rows_line digests;
      ];
  }

let trace_path (w : Workloads.t) ~seed =
  Scratch.file (Printf.sprintf "trace-%s-seed%d.json" w.Workloads.name seed)

(* Runs [f] with obs counters and span recording on, as request
   [<workload>:<phase>]. *)
let traced (w : Workloads.t) phase f =
  Spans.request := w.Workloads.name ^ ":" ^ phase;
  Spans.enabled := true;
  Sfi_obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Spans.enabled := false;
      Sfi_obs.set_enabled false)
    f

let traced_run s (w : Workloads.t) ~seed ~expected =
  let c = { attempted = 0; failed = 0 } in
  Sfi_obs.reset ();
  Spans.reset ();
  let p =
    traced w "setup" (fun () -> Spans.time "setup" (fun () -> w.Workloads.setup s.scale ~seed))
  in
  let warmup = rep p ~jobs in
  let digests, reference = reference_rows c w ~expected p warmup in
  (* Untraced reps for half the measuring time; the layer probes take
     about the other half. *)
  let t0 = Measure.now () in
  let rec timed_reps acc =
    if List.length acc >= s.min_reps && Measure.now () -. t0 >= s.seconds /. 2. then List.rev acc
    else timed_reps (rep p ~jobs :: acc)
  in
  let reps = timed_reps [] in
  let untraced_wall =
    Measure.median (List.map (fun (r : Workloads.result) -> r.Workloads.wall_s) reps)
  in
  Gc.compact ();
  let traced_rep = traced w "rep" (fun () -> Spans.time "rep" (fun () -> p.Workloads.run ~jobs)) in
  let serial = rep p ~jobs:1 in
  List.iter
    (fun (r : Workloads.result) -> check_rep c w ~reference (r.Workloads.rows ()))
    ((traced_rep :: serial :: reps));
  let layer_metrics, cache_ok =
    traced w "layers" (fun () -> Layers.run s.layer_params ~seed (p.Workloads.probe ()))
  in
  check c cache_ok;
  let speedup = serial.Workloads.wall_s /. untraced_wall in
  let metrics =
    List.map
      (fun (m : Layers.metric) -> (m.Layers.name, m.Layers.value, m.Layers.unit))
      layer_metrics
    @ [
        ("pool.speedup", speedup, "ratio");
        ("pool.efficiency", speedup /. float_of_int jobs, "ratio");
        ("trace.overhead_frac", (traced_rep.Workloads.wall_s /. untraced_wall) -. 1., "fraction");
      ]
  in
  let spans = Spans.all () in
  let path = trace_path w ~seed in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String "sfi-benchmark-trace/1");
                ("workload", Json.String w.Workloads.name);
                ("seed", Json.Int seed);
                ("env", env_json ());
                ("spans", Spans.to_json spans);
              ]));
      output_char oc '\n');
  let requests = List.sort_uniq compare (List.map (fun sp -> sp.Spans.request) spans) in
  let self_lines =
    List.concat_map
      (fun req ->
        let mine = List.filter (fun sp -> sp.Spans.request = req) spans in
        Printf.sprintf "  self time per layer, %s:" req
        :: List.map
             (fun (layer, t) -> Printf.sprintf "    %-14s %10.4f s" layer t)
             (Spans.self_by_layer mine))
      requests
  in
  {
    checks = c;
    metrics;
    summary =
      (Printf.sprintf "  untraced wall %.4f s (median of %d), traced rep %.4f s, jobs=1 rep %.4f s"
         untraced_wall (List.length reps) traced_rep.Workloads.wall_s serial.Workloads.wall_s
      :: List.map (fun (n, v, u) -> Printf.sprintf "  %-34s %14.6g %s" n v u) metrics)
      @ self_lines
      @ [ rows_line digests; "  spans written to " ^ path ];
  }

(* The printed metrics must be exactly the ones BENCHMARK.json declares,
   with its units. *)
let conform ~trace metrics =
  let decl = declared (if trace then "per_layer" else "end_to_end") in
  let got = List.sort compare (List.map (fun (n, _, u) -> (n, u)) metrics) in
  let want = List.sort compare (List.map (fun d -> (d.d_name, d.d_unit)) decl) in
  if got <> want then begin
    let missing = List.filter (fun x -> not (List.mem x got)) want in
    let extra = List.filter (fun x -> not (List.mem x want)) got in
    let show l = String.concat ", " (List.map (fun (n, u) -> n ^ " [" ^ u ^ "]") l) in
    Error
      (Printf.sprintf "metrics differ from %s: missing {%s}, undeclared {%s}" decl_file
         (show missing) (show extra))
  end
  else if List.exists (fun (_, v, _) -> not (Float.is_finite v)) metrics then
    Error
      ("non-finite metric: "
      ^ String.concat ", "
          (List.filter_map (fun (n, v, _) -> if Float.is_finite v then None else Some n) metrics))
  else Ok ()

let result_json o =
  Json.Obj
    [
      ("correct", Json.Bool (o.checks.failed = 0));
      ("attempted", Json.Int o.checks.attempted);
      ("failed", Json.Int o.checks.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
             o.metrics) );
    ]

let run_once s (w : Workloads.t) ~seed ~trace ~expected =
  if trace then traced_run s w ~seed ~expected else untraced s w ~seed ~expected

(* ---------- --compare ---------- *)

type record = {
  r_workload : string;
  r_seed : int;
  r_metrics : (string * float) list;
  r_failed : int;
}

let read_records path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         let j = try Json.parse line with Json.Parse_error e -> fail "%s: %s" path e in
         let trace = Option.bind (Json.member "trace" j) Json.to_int in
         let result = Json.member "result" j in
         match (Option.bind (Json.member "workload" j) Json.to_string_opt, trace, result) with
         | Some wl, Some 0, Some res ->
           let metrics =
             match Json.member "metrics" res with
             | Some (Json.Obj ms) ->
               List.filter_map
                 (fun (n, m) ->
                   Option.map (fun v -> (n, v)) (Option.bind (Json.member "value" m) Json.to_float))
                 ms
             | _ -> []
           in
           Some
             {
               r_workload = wl;
               r_seed = Option.value ~default:0 (Option.bind (Json.member "seed" j) Json.to_int);
               r_metrics = metrics;
               r_failed =
                 Option.value ~default:0 (Option.bind (Json.member "failed" res) Json.to_int);
             }
         | _ -> None)

(* Pairs runs of the same seed; without common seeds, in file order. *)
let pairs base fresh =
  let common = List.filter (fun (s, _) -> List.mem_assoc s fresh) base in
  if common <> [] then List.map (fun (s, v) -> (v, List.assoc s fresh)) common
  else
    let rec zip a b = match (a, b) with x :: a', y :: b' -> (snd x, snd y) :: zip a' b' | _ -> [] in
    zip base fresh

(* better: the change wins at least 9 of 10 pairs and its median moved by
   more than the base runs' interquartile range; worse: its median is
   worse than the base's by more than the bound; unresolved: neither, and
   a side's spread exceeds the bound; same: otherwise. *)
let verdict d ~base ~fresh =
  let bm = Measure.median (List.map snd base) and nm = Measure.median (List.map snd fresh) in
  let q1, q3 = Measure.quartiles (List.map snd base) in
  let nq1, nq3 = Measure.quartiles (List.map snd fresh) in
  let worse_by = (if d.lower_better then nm -. bm else bm -. nm) /. Float.abs bm in
  let ps = pairs base fresh in
  let wins =
    List.length (List.filter (fun (b, n) -> if d.lower_better then n < b else n > b) ps)
  in
  let v =
    if worse_by > d.bound then "worse"
    else if
      ps <> []
      && float_of_int wins >= 0.9 *. float_of_int (List.length ps)
      && worse_by < 0.
      && Float.abs (nm -. bm) > q3 -. q1
    then "better"
    else if (q3 -. q1) /. Float.abs bm > d.bound || (nq3 -. nq1) /. Float.abs nm > d.bound then
      "unresolved"
    else "same"
  in
  (bm, (q1, q3), nm, (nq1, nq3), wins, List.length ps, v)

let compare_files base_path new_path =
  let decl = declared "end_to_end" in
  let base = read_records base_path and fresh = read_records new_path in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.r_workload) (base @ fresh)) in
  Printf.printf "%-12s %-14s %12s %-23s %12s %-23s %8s %6s  %s\n" "workload" "metric" "base"
    "[q1, q3]" "new" "[q1, q3]" "delta" "wins" "verdict";
  List.iter
    (fun wl ->
      let of_side rs name =
        List.filter_map
          (fun r ->
            if r.r_workload <> wl then None
            else Option.map (fun v -> (r.r_seed, v)) (List.assoc_opt name r.r_metrics))
          rs
      in
      List.iter
        (fun d ->
          let b = of_side base d.d_name and n = of_side fresh d.d_name in
          if b = [] || n = [] then
            Printf.printf "%-12s %-14s %s\n" wl d.d_name "(missing on one side)"
          else begin
            let bm, (q1, q3), nm, (nq1, nq3), wins, np, v = verdict d ~base:b ~fresh:n in
            Printf.printf
              "%-12s %-14s %12.6g [%9.6g, %9.6g] %12.6g [%9.6g, %9.6g] %+7.2f%% %3d/%-3d %s\n" wl
              d.d_name bm q1 q3 nm nq1 nq3
              (100. *. (nm -. bm) /. Float.abs bm)
              wins np v
          end)
        decl;
      let failed rs =
        List.fold_left (fun acc r -> if r.r_workload = wl then acc + r.r_failed else acc) 0 rs
      in
      Printf.printf "%-12s %-14s base %d, new %d\n" wl "failed" (failed base) (failed fresh))
    workloads

(* ---------- --smoke ---------- *)

(* Every workload at about 1% of its size, both modes: the printed
   metrics must conform to BENCHMARK.json, nothing may mismatch, and the
   trace must parse with each rep span covered by its children to within
   5%. No timing assertions. *)
let smoke_test () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun trace ->
          let o = run_once smoke w ~seed:1 ~trace ~expected:None in
          (match conform ~trace o.metrics with
          | Ok () -> ()
          | Error e -> problem "%s: %s" w.Workloads.name e);
          if o.checks.failed <> 0 || o.checks.attempted = 0 then
            problem "%s (trace %b): %d of %d checks failed" w.Workloads.name trace o.checks.failed
              o.checks.attempted;
          if trace then begin
            let path = trace_path w ~seed:1 in
            let spans =
              match Json.member "spans" (read_json path) with
              | Some j -> Spans.of_json j
              | None -> fail "%s: no spans" path
            in
            Sys.remove path;
            let self = Spans.self_times spans in
            List.iter
              (fun (sp, own) ->
                if sp.Spans.name = "rep" && own > 0.05 *. Spans.duration sp then
                  problem "%s: children cover only %.1f%% of the rep span" w.Workloads.name
                    (100. *. (1. -. (own /. Spans.duration sp))))
              self;
            if not (List.exists (fun (sp, _) -> sp.Spans.name = "rep") self) then
              problem "%s: no rep span in the trace" w.Workloads.name
          end;
          Printf.printf "smoke %-12s trace=%d: %d checks, %d metrics\n%!" w.Workloads.name
            (Bool.to_int trace) o.checks.attempted (List.length o.metrics))
        [ false; true ])
    Workloads.all;
  match !problems with
  | [] -> print_endline "smoke ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
    exit 1

(* ---------- command line ---------- *)

let usage =
  "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--record FILE]\n\
  \       main.exe --compare BASE.jsonl NEW.jsonl\n\
  \       main.exe --smoke\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | ("--smoke" as k) :: rest -> opts ((k, "") :: acc) rest
    | "--compare" :: a :: b :: rest -> opts (("--compare", a) :: ("--compare-new", b) :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let o = opts [] args in
  let get k = List.assoc_opt k o in
  let int_arg k =
    match Option.map int_of_string_opt (get k) with
    | Some (Some n) -> n
    | _ ->
      prerr_endline ("benchmark: " ^ k ^ " needs an integer\n" ^ usage);
      exit 2
  in
  check_env ();
  Pool.set_default_jobs jobs;
  Sfi_cache.set_dir None;
  Sfi_obs.set_enabled false;
  if List.mem_assoc "--smoke" o then smoke_test ()
  else
    match (get "--compare", get "--compare-new") with
    | Some a, Some b -> compare_files a b
    | _ ->
      let name = Option.value ~default:"" (get "--workload") in
      let w =
        match Workloads.find name with
        | Some w -> w
        | None ->
          prerr_endline ("benchmark: unknown workload " ^ name ^ "\n" ^ usage);
          exit 2
      in
      let seed = int_arg "--seed" and trace = int_arg "--trace" <> 0 in
      let seconds =
        match Option.bind (get "--seconds") float_of_string_opt with
        | Some s when s >= 0. -> s
        | _ ->
          prerr_endline ("benchmark: --seconds needs a number\n" ^ usage);
          exit 2
      in
      let expected = expected_rows w ~seed in
      Printf.printf "benchmark %s seed=%d trace=%d seconds=%g jobs=%d reference=%s env=%s\n%!"
        w.Workloads.name seed (Bool.to_int trace) seconds jobs
        (if expected = None then "recompute-every-4th-at-jobs-1" else "committed-digests")
        (Json.to_string (env_json ()));
      let o = run_once (full ~seconds) w ~seed ~trace ~expected in
      (match conform ~trace o.metrics with Ok () -> () | Error e -> fail "%s" e);
      List.iter print_endline o.summary;
      Printf.printf "  checks: %d attempted, %d failed (mismatch_frac %g)\n" o.checks.attempted
        o.checks.failed
        (float_of_int o.checks.failed /. float_of_int (max 1 o.checks.attempted));
      let result = result_json o in
      Option.iter
        (fun path ->
          Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 path (fun oc ->
              output_string oc
                (Json.to_string
                   (Json.Obj
                      [
                        ("workload", Json.String w.Workloads.name);
                        ("seed", Json.Int seed);
                        ("trace", Json.Int (Bool.to_int trace));
                        ("env", env_json ());
                        ("result", result);
                      ]));
              output_char oc '\n'))
        (get "--record");
      print_endline (Json.to_string result);
      if o.checks.failed > 0 then exit 1
