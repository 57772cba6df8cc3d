(* Command-line interface to the statistical fault injection toolkit. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The flags shared across subcommands (-j/--jobs, --seed, --obs,
   --cache-dir, --adaptive/--ci-target/--checkpoint, ...) live in
   Common_flags so every subcommand parses them identically. *)
let jobs_arg = Common_flags.jobs_arg

let apply_jobs = Common_flags.apply_jobs

let obs_arg = Common_flags.obs_arg

let with_obs = Common_flags.with_obs

let cache_dir_arg = Common_flags.cache_dir_arg

let fail = Common_flags.fail

(* ---------- sfi experiments ---------- *)

let experiments_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let paper =
    Arg.(value & flag & info [ "paper" ] ~doc:"Paper-scale Monte-Carlo settings (slow).")
  in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.") in
  let run ids paper list_only jobs obs cache_dir
      (spec_flags : ?fixed_trials:int -> unit -> Sfi_fi.Campaign.Spec.t) =
    if list_only then
      List.iter
        (fun (id, desc) -> Printf.printf "%-18s %s\n" id desc)
        Sfi_core.Experiments.all
    else begin
      apply_jobs jobs;
      Sfi_cache.set_dir cache_dir;
      with_obs obs @@ fun () ->
      let scale = if paper then Sfi_core.Experiments.paper else Sfi_core.Experiments.fast in
      (* No nominal count here: each figure scales the policy template to
         its own trial count (an adaptive template's ceiling follows). *)
      let spec = spec_flags () in
      let ctx = Sfi_core.Experiments.make_ctx ~spec scale in
      (* Unknown ids are rejected before any experiment runs. *)
      try Sfi_core.Experiments.run ctx ids with Invalid_argument msg -> fail "%s" msg
    end
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ ids $ paper $ list_only $ jobs_arg $ obs_arg $ cache_dir_arg
          $ Common_flags.spec_flags)

(* ---------- sfi flow ---------- *)

let flow_cmd =
  let char_cycles =
    Arg.(value & opt int 2000 & info [ "cycles" ] ~doc:"DTA characterization cycles.")
  in
  let vdd = Arg.(value & opt float 0.7 & info [ "vdd" ] ~doc:"Characterization voltage.") in
  let seed =
    Arg.(value
         & opt int Sfi_core.Flow.default_config.Sfi_core.Flow.char_seed
         & info [ "seed" ] ~docv:"N" ~doc:"Characterization RNG seed.")
  in
  let run char_cycles vdd seed jobs obs cache_dir =
    Common_flags.check_cycles char_cycles;
    Common_flags.check_vdd vdd;
    apply_jobs jobs;
    Sfi_cache.set_dir cache_dir;
    with_obs obs @@ fun () ->
    let config =
      {
        Sfi_core.Flow.default_config with
        Sfi_core.Flow.char_cycles;
        Sfi_core.Flow.char_seed = seed;
      }
    in
    let flow = Sfi_core.Flow.create ~config () in
    ignore (Sfi_core.Flow.char_db flow ~vdd);
    print_string (Sfi_core.Flow.summary flow);
    Printf.printf "per-class dynamic first-failure frequency [MHz] at %.2f V:\n" vdd;
    let db = Sfi_core.Flow.char_db flow ~vdd in
    List.iter
      (fun cls ->
        Printf.printf "  %-4s %8.1f\n" (Sfi_util.Op_class.name cls)
          (Sfi_timing.Characterize.class_first_failure_mhz db cls ~scale:1.0))
      Sfi_util.Op_class.all
  in
  Cmd.v
    (Cmd.info "flow" ~doc:"Build the gate-level flow and print its timing summary.")
    Term.(const run $ char_cycles $ vdd $ seed $ jobs_arg $ obs_arg $ cache_dir_arg)

(* ---------- sfi asm ---------- *)

(* The assembler front end of [asm], [run] and [trace]: an error in
   FILE prints FILE:LINE: MESSAGE on stderr and exits 1. *)
let assemble_file file =
  match Sfi_isa.Asm.assemble (read_file file) with
  | Ok program -> program
  | Error e ->
    Printf.eprintf "%s:%d: %s\n" file e.Sfi_isa.Asm.line e.Sfi_isa.Asm.message;
    exit 1

let asm_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let program = assemble_file file in
    print_string (Sfi_isa.Program.disassemble program);
    Printf.printf "# entry 0x%x, image limit 0x%x, %d initialized words\n"
      program.Sfi_isa.Program.entry program.Sfi_isa.Program.limit
      (Array.length program.Sfi_isa.Program.words)
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble an OR1K-subset source file and print the listing.")
    Term.(const run $ file)

(* ---------- sfi run ---------- *)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let max_cycles =
    Arg.(value & opt int 50_000_000 & info [ "max-cycles" ] ~doc:"Watchdog budget.")
  in
  let mem_size =
    Arg.(value & opt int 65536 & info [ "mem" ] ~doc:"Memory size in bytes (power of two).")
  in
  let dump =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"ADDR:COUNT" ~doc:"Dump COUNT words from ADDR after the run.")
  in
  let run file max_cycles mem_size dump =
    (* Validated before anything runs: Memory.create rejects a bad size
       with an exception, and the dump read wraps at the memory size. *)
    if mem_size <= 0 || mem_size land (mem_size - 1) <> 0 then
      fail "--mem must be a positive power of two (got %d)" mem_size;
    let dump =
      Option.map
        (fun spec ->
          match List.map int_of_string_opt (String.split_on_char ':' spec) with
          | [ Some addr; Some count ] ->
            if addr land 3 <> 0 then fail "--dump address 0x%x is not word-aligned" addr;
            if count < 1 then fail "--dump count must be >= 1 (got %d)" count;
            if addr < 0 || addr >= mem_size || count > (mem_size - addr) / 4 then
              fail "--dump %s is outside the %d-byte memory (--mem)" spec mem_size;
            (addr, count)
          | _ -> fail "bad --dump spec %S (expected ADDR:COUNT)" spec)
        dump
    in
    let program = assemble_file file in
    let mem = Sfi_sim.Memory.create ~size:mem_size in
    Sfi_sim.Memory.load_program mem program;
    let config = { Sfi_sim.Cpu.default_config with Sfi_sim.Cpu.max_cycles } in
    let stats = Sfi_sim.Cpu.run ~config mem ~entry:program.Sfi_isa.Program.entry in
    let outcome =
      match stats.Sfi_sim.Cpu.outcome with
      | Sfi_sim.Cpu.Exited -> "exited"
      | Sfi_sim.Cpu.Watchdog -> "watchdog"
      | Sfi_sim.Cpu.Trapped m -> "trapped: " ^ m
    in
    Printf.printf "outcome: %s\ncycles: %d\ninstret: %d\nipc: %.3f\nkernel cycles: %d\n"
      outcome stats.Sfi_sim.Cpu.cycles stats.Sfi_sim.Cpu.instret
      (Sfi_sim.Cpu.ipc stats) stats.Sfi_sim.Cpu.kernel_cycles;
    Option.iter
      (fun (addr, count) ->
        Array.iteri
          (fun i w -> Printf.printf "%08x: %s\n" (addr + (4 * i)) (Sfi_util.U32.to_hex w))
          (Sfi_sim.Memory.read_u32_array mem ~addr ~count))
      dump
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Assemble and execute a program on the cycle-accurate ISS.")
    Term.(const run $ file $ max_cycles $ mem_size $ dump)

(* ---------- sfi campaign ---------- *)

let campaign_cmd =
  let bench_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BENCH" ~doc:"median, mat_mult_8bit, mat_mult_16bit, kmeans, dijkstra.")
  in
  let vdd = Arg.(value & opt float 0.7 & info [ "vdd" ]) in
  let sigma_mv = Arg.(value & opt float 10. & info [ "sigma" ] ~doc:"Noise sigma in mV.") in
  let trials = Arg.(value & opt int 50 & info [ "trials" ]) in
  let lo = Arg.(value & opt float 650. & info [ "from" ] ~doc:"Sweep start, MHz.") in
  let hi = Arg.(value & opt float 1000. & info [ "to" ] ~doc:"Sweep end, MHz.") in
  let step = Arg.(value & opt float 25. & info [ "step" ] ~doc:"Sweep step, MHz.") in
  let prob =
    Arg.(value & opt float 1e-6 & info [ "prob" ] ~doc:"Bit-flip probability for model A.")
  in
  let char_cycles = Arg.(value & opt int 2000 & info [ "cycles" ]) in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the sweep as CSV.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the sweep as JSON (schema sfi-point/1).")
  in
  let run bench_name model_name model_params vdd sigma_mv trials lo hi step prob
      char_cycles csv json jobs obs cache_dir
      (spec_flags : ?fixed_trials:int -> unit -> Sfi_fi.Campaign.Spec.t) =
    Common_flags.check_cycles char_cycles;
    Common_flags.check_vdd vdd;
    Common_flags.check_finite "prob" prob;
    Common_flags.check_finite "sigma" sigma_mv;
    if sigma_mv < 0. then fail "--sigma must be >= 0 mV (got %g)" sigma_mv;
    (* The grid below must be finite and non-empty. *)
    List.iter
      (fun (name, v) ->
        if not (Float.is_finite v && v > 0.) then
          fail "--%s must be a positive number of MHz (got %g)" name v)
      [ ("from", lo); ("to", hi); ("step", step) ];
    if lo > hi then fail "--from %g MHz is above --to %g MHz" lo hi;
    apply_jobs jobs;
    Sfi_cache.set_dir cache_dir;
    with_obs obs @@ fun () ->
    match Sfi_kernels.Registry.by_name bench_name with
    | None ->
      fail "unknown benchmark %s (try: %s)" bench_name
        (String.concat ", " Sfi_kernels.Registry.names)
    | Some bench ->
      let params =
        match Common_flags.parse_model_params model_params with
        | Ok ps -> ps
        | Error e -> fail "%s" e
      in
      let config = { Sfi_core.Flow.default_config with Sfi_core.Flow.char_cycles } in
      let flow = Sfi_core.Flow.create ~config () in
      let sigma = sigma_mv /. 1000. in
      (* --prob keeps its historic meaning as model A's parameter; an
         explicit --model-param p=... wins. *)
      let params =
        if String.uppercase_ascii model_name = "A" && not (List.mem_assoc "p" params)
        then ("p", Sfi_obs.Json.Float prob) :: params
        else params
      in
      let model =
        match Sfi_core.Flow.model_by_key ~params flow ~key:model_name ~vdd ~sigma with
        | Ok m -> m
        | Error e -> fail "%s" e
      in
      let spec = spec_flags ~fixed_trials:trials () in
      let rec freqs f = if f > hi +. 1e-9 then [] else f :: freqs (f +. step) in
      let points = Sfi_fi.Campaign.run_sweep spec ~bench ~model ~freqs_mhz:(freqs lo) in
      let t =
        Sfi_util.Table.create
          ~title:
            (Printf.sprintf "%s under model %s at %.2f V, sigma %.0f mV (%s)" bench_name
               (Sfi_fi.Model.key model) vdd sigma_mv
               (Sfi_fi.Campaign.Spec.policy_to_string spec.Sfi_fi.Campaign.Spec.trials))
          [
            ("f [MHz]", Sfi_util.Table.Right);
            ("trials", Sfi_util.Table.Right);
            ("finished", Sfi_util.Table.Right);
            ("correct", Sfi_util.Table.Right);
            ("95% CI", Sfi_util.Table.Right);
            ("FI/kCycle", Sfi_util.Table.Right);
            (bench.Sfi_kernels.Bench.metric_name, Sfi_util.Table.Right);
          ]
      in
      List.iter
        (fun (p : Sfi_fi.Campaign.point) ->
          Sfi_util.Table.add_row t
            [
              Printf.sprintf "%.1f" p.Sfi_fi.Campaign.freq_mhz;
              string_of_int p.Sfi_fi.Campaign.trials;
              Sfi_util.Table.fmt_pct p.Sfi_fi.Campaign.finished_rate;
              Sfi_util.Table.fmt_pct p.Sfi_fi.Campaign.correct_rate;
              Printf.sprintf "[%.2f,%.2f]" p.Sfi_fi.Campaign.ci_low
                p.Sfi_fi.Campaign.ci_high;
              (if p.Sfi_fi.Campaign.any_fault_possible then
                 Printf.sprintf "%.3g" p.Sfi_fi.Campaign.fi_per_kcycle
               else "n/a");
              Sfi_util.Table.fmt_float p.Sfi_fi.Campaign.mean_error;
            ])
        points;
      Sfi_util.Table.print t;
      (match json with
      | None -> ()
      | Some path ->
        let doc =
          Sfi_fi.Campaign.Point_json.of_sweep
            ~meta:
              [
                ("bench", Sfi_obs.Json.String bench_name);
                ("model", Sfi_obs.Json.String (Sfi_fi.Model.to_string model));
                ("vdd", Sfi_obs.Json.Float vdd);
                ("sigma_mv", Sfi_obs.Json.Float sigma_mv);
                ( "policy",
                  Sfi_obs.Json.String
                    (Sfi_fi.Campaign.Spec.policy_to_string
                       spec.Sfi_fi.Campaign.Spec.trials) );
              ]
            points
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Sfi_fi.Campaign.Point_json.to_string doc);
            output_char oc '\n');
        Printf.printf "wrote %s\n" path);
      match csv with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Sfi_util.Table.to_csv t));
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run a Monte-Carlo fault-injection frequency sweep.")
    Term.(const run $ bench_name $ Common_flags.model_arg $ Common_flags.model_param_arg
          $ vdd $ sigma_mv $ trials $ lo $ hi $ step
          $ prob $ char_cycles $ csv $ json $ jobs_arg $ obs_arg $ cache_dir_arg
          $ Common_flags.spec_flags)

(* ---------- sfi stats ---------- *)

let stats_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Observability snapshot (JSONL, schema sfi-obs/1) \
                                      written by --obs.")
  in
  let run file =
    let open Sfi_obs.Json in
    let lines =
      String.split_on_char '\n' (read_file file)
      |> List.filter (fun l -> String.trim l <> "")
    in
    let parsed =
      List.filter_map
        (fun l ->
          match parse l with
          | v -> Some v
          | exception Parse_error msg ->
            Printf.eprintf "sfi stats: skipping malformed line (%s)\n" msg;
            None)
        lines
    in
    (match List.find_opt (fun v -> member "schema" v <> None) parsed with
    | Some header ->
      let schema =
        Option.value ~default:"?" (Option.bind (member "schema" header) to_string_opt)
      in
      let jobs = Option.bind (member "jobs" header) to_int in
      Printf.printf "snapshot %s (schema %s%s)\n" file schema
        (match jobs with Some j -> Printf.sprintf ", %d jobs" j | None -> "")
    | None -> Printf.printf "snapshot %s (no header line)\n" file);
    let typed t =
      List.filter
        (fun v -> Option.bind (member "type" v) to_string_opt = Some t)
        parsed
    in
    let name_of v =
      Option.value ~default:"?" (Option.bind (member "name" v) to_string_opt)
    in
    let int_of key v = Option.value ~default:0 (Option.bind (member key v) to_int) in
    let counters = typed "counter" and hists = typed "hist" and spans = typed "span" in
    let ct =
      Sfi_util.Table.create ~title:"counters"
        [ ("name", Sfi_util.Table.Left); ("det", Sfi_util.Table.Left);
          ("value", Sfi_util.Table.Right) ]
    in
    List.iter
      (fun v ->
        let det = Option.value ~default:true (Option.bind (member "det" v) to_bool) in
        Sfi_util.Table.add_row ct
          [ name_of v; (if det then "yes" else "no"); string_of_int (int_of "value" v) ])
      counters;
    Sfi_util.Table.print ct;
    if hists <> [] then begin
      let ht =
        Sfi_util.Table.create ~title:"log2 histograms"
          [ ("name", Sfi_util.Table.Left); ("count", Sfi_util.Table.Right);
            ("sum", Sfi_util.Table.Right); ("mean", Sfi_util.Table.Right);
            ("~p50", Sfi_util.Table.Right); ("max bucket", Sfi_util.Table.Right) ]
      in
      List.iter
        (fun v ->
          let count = int_of "count" v and sum = int_of "sum" v in
          let buckets =
            match member "buckets" v with
            | Some (List bs) ->
              List.filter_map
                (function
                  | List [ b; c ] -> (
                    match (to_int b, to_int c) with
                    | Some b, Some c -> Some (b, c)
                    | _ -> None)
                  | _ -> None)
                bs
            | _ -> []
          in
          (* Approximate p50: the lower bound of the bucket where the
             cumulative count crosses half. *)
          let p50 =
            let half = (count + 1) / 2 in
            let rec walk acc = function
              | [] -> "n/a"
              | (b, c) :: rest ->
                if acc + c >= half && count > 0 then
                  Printf.sprintf ">=%d" (Sfi_obs.Hist.lo_of_bucket b)
                else walk (acc + c) rest
            in
            walk 0 buckets
          in
          let max_bucket =
            match List.rev buckets with
            | (b, _) :: _ -> Printf.sprintf ">=%d" (Sfi_obs.Hist.lo_of_bucket b)
            | [] -> "n/a"
          in
          let mean =
            if count = 0 then nan else float_of_int sum /. float_of_int count
          in
          Sfi_util.Table.add_row ht
            [ name_of v; string_of_int count; string_of_int sum;
              Sfi_util.Table.fmt_float ~decimals:1 mean; p50; max_bucket ])
        hists;
      Sfi_util.Table.print ht
    end;
    if spans <> [] then begin
      let st =
        Sfi_util.Table.create ~title:"wall-time spans"
          [ ("name", Sfi_util.Table.Left); ("count", Sfi_util.Table.Right);
            ("total [s]", Sfi_util.Table.Right); ("mean [ms]", Sfi_util.Table.Right) ]
      in
      List.iter
        (fun v ->
          let count = int_of "count" v and ns = int_of "total_ns" v in
          let mean_ms =
            if count = 0 then nan
            else float_of_int ns /. 1e6 /. float_of_int count
          in
          Sfi_util.Table.add_row st
            [ name_of v; string_of_int count;
              Sfi_util.Table.fmt_float ~decimals:3 (float_of_int ns /. 1e9);
              Sfi_util.Table.fmt_float ~decimals:3 mean_ms ])
        spans;
      Sfi_util.Table.print st
    end;
    (* Degenerate-input-safe summary: all of these are total functions
       even when the snapshot carries no counters at all. *)
    let values =
      Array.of_list (List.map (fun v -> float_of_int (int_of "value" v)) counters)
    in
    Printf.printf
      "%d counters, %d histograms, %d spans; counter median %s, p95 %s\n"
      (List.length counters) (List.length hists) (List.length spans)
      (Sfi_util.Table.fmt_float ~decimals:1 (Sfi_util.Stats.median values))
      (Sfi_util.Table.fmt_float ~decimals:1 (Sfi_util.Stats.percentile values 95.))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Summarize an observability snapshot written by campaign/experiments --obs.")
    Term.(const run $ file)

(* ---------- sfi cache ---------- *)

let cache_cmds =
  let resolve = function
    | Some d -> d
    | None ->
      prerr_endline "sfi cache: no cache directory (use --cache-dir or set SFI_CACHE_DIR)";
      exit 2
  in
  let dir_arg = Common_flags.cache_dir ~doc:"Cache directory to operate on." in
  let ls_cmd =
    let run dir =
      let dir = resolve dir in
      let entries = Sfi_cache.scan ~dir in
      (* namespace -> payload codec, matching each producer's
         fingerprint label *)
      let codec_of = function
        | "refcycles" -> "sfi-refcycles/1"
        | "snap" -> "sfi-snap/1"
        | "chardb" -> "sfi-chardb/1"
        | _ -> "?"
      in
      let t =
        Sfi_util.Table.create ~title:(Printf.sprintf "cache %s" dir)
          [ ("namespace", Sfi_util.Table.Left); ("codec", Sfi_util.Table.Left);
            ("key", Sfi_util.Table.Left); ("bytes", Sfi_util.Table.Right);
            ("status", Sfi_util.Table.Left) ]
      in
      List.iter
        (fun (e : Sfi_cache.entry_info) ->
          Sfi_util.Table.add_row t
            [ (if e.Sfi_cache.namespace = "" then "?" else e.Sfi_cache.namespace);
              codec_of e.Sfi_cache.namespace;
              (if e.Sfi_cache.key = "" then e.Sfi_cache.file else e.Sfi_cache.key);
              string_of_int e.Sfi_cache.bytes;
              (if e.Sfi_cache.valid then "ok" else "INVALID: " ^ e.Sfi_cache.reason) ])
        entries;
      Sfi_util.Table.print t;
      Printf.printf "%d entries, %d invalid\n" (List.length entries)
        (List.length (List.filter (fun e -> not e.Sfi_cache.valid) entries))
    in
    Cmd.v (Cmd.info "ls" ~doc:"List cache entries and their validation status.")
      Term.(const run $ dir_arg)
  in
  let verify_cmd =
    let run dir =
      let dir = resolve dir in
      let entries = Sfi_cache.scan ~dir in
      let bad = List.filter (fun (e : Sfi_cache.entry_info) -> not e.Sfi_cache.valid) entries in
      List.iter
        (fun (e : Sfi_cache.entry_info) ->
          Printf.printf "INVALID %s: %s\n" e.Sfi_cache.file e.Sfi_cache.reason)
        bad;
      Printf.printf "%d entries checked, %d invalid\n" (List.length entries) (List.length bad);
      if bad <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Validate every entry (magic, version, CRC-32); exit 1 if any is corrupt.")
      Term.(const run $ dir_arg)
  in
  let prune_cmd =
    let all = Arg.(value & flag & info [ "all" ] ~doc:"Remove every entry.") in
    let max_age =
      Arg.(value
           & opt (some float) None
           & info [ "max-age-days" ] ~docv:"DAYS" ~doc:"Also remove entries older than $(docv).")
    in
    let run dir all max_age =
      let dir = resolve dir in
      let removed = Sfi_cache.prune ?max_age_days:max_age ~all ~dir () in
      Printf.printf "pruned %d entr%s from %s\n" removed
        (if removed = 1 then "y" else "ies")
        dir
    in
    Cmd.v
      (Cmd.info "prune"
         ~doc:"Remove invalid entries, stale temp files, and optionally old or all entries.")
      Term.(const run $ dir_arg $ all $ max_age)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect and maintain the persistent characterization cache.")
    [ ls_cmd; verify_cmd; prune_cmd ]

(* ---------- sfi verilog ---------- *)

let verilog_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let sized = Arg.(value & flag & info [ "sized" ] ~doc:"Apply the virtual-synthesis sizing first.") in
  let run out sized =
    let alu = Sfi_netlist.Alu.build () in
    if sized then begin
      Sfi_timing.Sizing.apply_process_variation ~sigma:0.03 ~seed:1
        alu.Sfi_netlist.Alu.circuit;
      Sfi_timing.Sizing.size_to_clock ~clock_mhz:707. alu.Sfi_netlist.Alu.circuit
    end;
    match out with
    | Some path ->
      Sfi_netlist.Verilog.write_file ~module_name:"sfi_alu" ~path alu.Sfi_netlist.Alu.circuit;
      Printf.printf "wrote %s (%d gates)\n" path
        (Sfi_netlist.Circuit.gate_count alu.Sfi_netlist.Alu.circuit)
    | None ->
      print_string Sfi_netlist.Verilog.cell_definitions;
      print_string (Sfi_netlist.Verilog.to_string ~module_name:"sfi_alu" alu.Sfi_netlist.Alu.circuit)
  in
  Cmd.v
    (Cmd.info "verilog" ~doc:"Export the EX-stage ALU netlist as structural Verilog.")
    Term.(const run $ out $ sized)

(* ---------- sfi paths ---------- *)

let paths_cmd =
  let count = Arg.(value & opt int 5 & info [ "count" ] ~doc:"Endpoints to report.") in
  let vdd = Arg.(value & opt float 0.7 & info [ "vdd" ]) in
  let run count vdd =
    Common_flags.check_vdd vdd;
    let alu = Sfi_netlist.Alu.build () in
    Sfi_timing.Sizing.apply_process_variation ~sigma:0.03 ~seed:1 alu.Sfi_netlist.Alu.circuit;
    Sfi_timing.Sizing.size_to_clock ~clock_mhz:707. alu.Sfi_netlist.Alu.circuit;
    List.iter
      (fun p -> print_string (Sfi_timing.Path_report.pp p))
      (Sfi_timing.Path_report.worst_paths ~vdd ~count alu.Sfi_netlist.Alu.circuit)
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Report the critical paths of the sized ALU netlist.")
    Term.(const run $ count $ vdd)

(* ---------- sfi trace ---------- *)

let trace_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let limit = Arg.(value & opt int 50 & info [ "n" ] ~doc:"Instructions to trace.") in
  let run file limit =
    let program = assemble_file file in
    let mem = Sfi_sim.Memory.create ~size:65536 in
    Sfi_sim.Memory.load_program mem program;
    let remaining = ref limit in
    let trace ~pc insn =
      if !remaining > 0 then begin
        decr remaining;
        Printf.printf "%08x:  %s\n" pc (Sfi_isa.Insn.to_string insn)
      end
    in
    let config = { Sfi_sim.Cpu.default_config with Sfi_sim.Cpu.max_cycles = 10_000_000 } in
    let stats =
      Sfi_sim.Cpu.run_reference ~config ~trace mem ~entry:program.Sfi_isa.Program.entry
    in
    Printf.printf "... %d instructions retired in %d cycles\n" stats.Sfi_sim.Cpu.instret
      stats.Sfi_sim.Cpu.cycles
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Execute a program and print the first N retired instructions.")
    Term.(const run $ file $ limit)

(* ---------- sfi models ---------- *)

let models_cmd =
  let run () =
    let yn b = if b then "yes" else "no" in
    let t =
      Sfi_util.Table.create ~title:"registered fault models"
        [
          ("key", Sfi_util.Table.Left);
          ("description", Sfi_util.Table.Left);
          ("technique", Sfi_util.Table.Left);
          ("timing data", Sfi_util.Table.Left);
          ("cycle-dep", Sfi_util.Table.Left);
          ("params (defaults)", Sfi_util.Table.Left);
        ]
    in
    List.iter
      (fun (e : Sfi_fi.Model.Registry.entry) ->
        let params =
          match e.Sfi_fi.Model.Registry.default_params with
          | [] -> "-"
          | ps ->
            let value = function
              (* %g, not the JSON codec's round-trip form: 1e-06 reads
                 better than 9.9999999999999995e-07 in a listing. *)
              | Sfi_obs.Json.Float f -> Printf.sprintf "%g" f
              | v -> Sfi_obs.Json.to_string v
            in
            String.concat " "
              (List.map (fun (n, v) -> Printf.sprintf "%s=%s" n (value v)) ps)
        in
        Sfi_util.Table.add_row t
          [
            e.Sfi_fi.Model.Registry.key;
            e.Sfi_fi.Model.Registry.doc;
            e.Sfi_fi.Model.Registry.features.Sfi_fi.Model.technique;
            e.Sfi_fi.Model.Registry.features.Sfi_fi.Model.timing_data;
            yn e.Sfi_fi.Model.Registry.cycle_dependent;
            params;
          ])
      (Sfi_fi.Model.Registry.entries ());
    Sfi_util.Table.print t
  in
  Cmd.v
    (Cmd.info "models"
       ~doc:
         "List the registered fault models: the paper's timing-error models and \
          the adversarial attack families, with their default parameters.")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "sfi" ~version:"1.0.0"
       ~doc:
         "Statistical fault injection for impact-evaluation of timing errors (DAC'16 \
          reproduction).")
    [ experiments_cmd; flow_cmd; asm_cmd; run_cmd; campaign_cmd; models_cmd; stats_cmd;
      cache_cmds; verilog_cmd; paths_cmd; trace_cmd ]

let () = exit (Cmd.eval main)
