(* Speed gates: each production engine against its test-side reference
   on one fixed input, serially.

     dune build @bench-smoke

   A gate aborts (non-zero exit) when the two engines' results differ,
   and fails when the production engine's speedup is below its floor:

   - packed characterization >= 1.0x the scalar [Ref_characterize];
   - compiled [Cpu.run] >= 1.0x [Cpu.run_reference], both hooked;
   - fast-forward [Campaign.run] >= 2.0x [Ref_campaign]'s full replay.

   Each compare prints its walls, its ratio and its identity check; the
   kernel compare also prints the packed side's gate evaluations
   ([bitsim.words]) and its wall per evaluation.
   Throughput in absolute units, per workload and per layer, is measured
   by the benchmark (benchmark/README.md), not here. *)

open Sfi_util
open Sfi_core

(* Bit-identity through the versioned codec: the sfi-point/1 writer
   round-trips doubles exactly (nan as null), so equal strings mean equal
   points — one comparison shared with the golden tests instead of a
   hand-maintained field list. *)
let point_json p = Sfi_fi.Campaign.Point_json.(to_string (of_point p))

(* ---------- characterization kernels: scalar vs packed ---------- *)

(* The same characterization run on the scalar reference kernel and the
   production packed kernel, serially, timed — the packed engine's
   reason to exist in one number. The cache must be off here, or the
   packed side would load instead of compute. *)
let kernel_compare ~cycles () =
  Sfi_cache.set_dir None;
  (* A clean heap for a clean measurement: GC pressure from unrelated
     fixtures cannot skew the engine-vs-engine ratio. *)
  Gc.compact ();
  let flow = Flow.create () in
  let alu = Flow.alu flow in
  let timed characterize =
    let t0 = Unix.gettimeofday () in
    let db = characterize () in
    (db, Unix.gettimeofday () -. t0)
  in
  let sdb, scalar_wall_s =
    timed (fun () -> Sfi_oracle.Ref_characterize.run ~cycles ~vdd:0.7 alu)
  in
  (* The packed side's gate evaluations, from the instrumented run. *)
  let words = Sfi_obs.Counter.make ~det:false "bitsim.words" in
  let words0 = Sfi_obs.Counter.value words in
  let pdb, packed_wall_s =
    timed (fun () ->
        Sfi_timing.Characterize.run ~cycles ~spec:(Spec.with_jobs 1 Spec.default) ~vdd:0.7
          alu)
  in
  let evals = Sfi_obs.Counter.value words - words0 in
  if Marshal.to_string sdb [] <> Marshal.to_string pdb [] then
    failwith "kernel compare: packed database differs from scalar";
  let speedup = scalar_wall_s /. Float.max 1e-9 packed_wall_s in
  Printf.printf
    "kernel compare: %d cycles/class, scalar %.2f s, packed %.2f s (%d evaluations, %.1f \
     ns each), %.2fx, databases bit-identical\n%!"
    cycles scalar_wall_s packed_wall_s evals
    (packed_wall_s *. 1e9 /. float_of_int (max 1 evals))
    speedup;
  speedup

(* ---------- ISS engines: interpreter vs compiled basic blocks ---------- *)

(* The same kernel run on the reference interpreter ([Cpu.run_reference],
   a cold private state per run) and the production engine ([Cpu.run]),
   timed. Both sides run the way campaign trials do, with a fault hook:
   one that never injects, so the run stays the fault-free one. The
   full stats records and outputs must be equal: the compiled engine is
   cycle-for-cycle bit-identical by contract, so any divergence here is
   a hard failure, not a measurement artifact. Wall times are
   best-of-3 over rep blocks sized to ~20 M instructions so a stray
   scheduler hiccup cannot flip the gate. *)
let iss_compare () =
  let module C = Sfi_sim.Cpu in
  let module B = Sfi_kernels.Bench in
  Gc.compact ();
  let bench = Sfi_kernels.Median.create ~n:129 () in
  let never ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ = 0 in
  let config = { C.default_config with C.fault_hook = Some never } in
  let hooked run () =
    let mem = B.fresh_memory bench in
    let stats = run ~config mem ~entry:bench.B.program.Sfi_isa.Program.entry in
    (stats, B.read_output bench mem)
  in
  let reference = hooked (fun ~config mem ~entry -> C.run_reference ~config mem ~entry) in
  let compiled = hooked (fun ~config mem ~entry -> C.run ~config mem ~entry) in
  let istats, iout = reference () in
  let cstats, cout = compiled () in
  if istats <> cstats || iout <> cout then
    failwith "iss compare: compiled engine diverged from the interpreter";
  let insns = istats.C.instret in
  let reps = max 1 (20_000_000 / max 1 insns) in
  let time run =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore (run () : C.stats * U32.t array)
      done;
      let w = Unix.gettimeofday () -. t0 in
      if w < !best then best := w
    done;
    !best /. float_of_int reps
  in
  let interp_wall_s = time reference in
  let compiled_wall_s = time compiled in
  let per_sec wall = float_of_int insns /. Float.max 1e-9 wall in
  let speedup = interp_wall_s /. Float.max 1e-9 compiled_wall_s in
  Printf.printf
    "iss compare: %d insns/run x %d hooked reps, interp %.2f Minsns/s, compiled %.2f \
     Minsns/s (%.2fx), stats bit-identical\n%!"
    insns reps
    (per_sec interp_wall_s /. 1e6)
    (per_sec compiled_wall_s /. 1e6)
    speedup;
  speedup

(* ---------- fast-forward vs full replay ---------- *)

(* The snapshot fast-forward payoff, measured where it matters: a
   model-C k-means point just past the provable no-fault region, where
   most trials are fault-free and full replay burns its time proving
   that one ISS run at a time. The campaign's analytic first-fault
   sampler elides those trials outright; the rest restore a snapshot
   and simulate only the suffix. The full-replay side is the test
   oracle's reference point ([Sfi_oracle.Ref_campaign]). Recording and
   reference-cycle costs are warmed out of the timed region (they are
   one-time and cached). *)
let fastforward_compare () =
  let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 400 } () in
  let bench =
    match Sfi_kernels.Registry.by_name "kmeans" with
    | Some b -> b
    | None -> failwith "fastforward compare: kmeans not in registry"
  in
  let fsta = Flow.sta_limit_mhz flow ~vdd:0.7 in
  let model = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  ignore (Sfi_fi.Fastforward.trace bench : Sfi_fi.Fastforward.trace);
  (* The rare-fault operating point: just past the injector's provable
     no-fault boundary, which bisection pins to a fraction of a MHz.
     kmeans fires tens of thousands of hooks per run, so even here only
     ~3 in 4 trials stay fault-free — any higher and nearly every trial
     faults, erasing the regime this comparison is about. *)
  let freq_mhz =
    let cannot f =
      Sfi_fi.Injector.cannot_inject
        (Sfi_fi.Injector.create ~count_obs:false ~model ~freq_mhz:f ~rng:(Rng.of_int 1) ())
    in
    let lo = ref (fsta *. 0.9) and hi = ref (fsta *. 1.1) in
    for _ = 1 to 40 do
      let mid = 0.5 *. (!lo +. !hi) in
      if cannot mid then lo := mid else hi := mid
    done;
    !hi *. 1.0002
  in
  let trials = 24 in
  let module Spec = Sfi_fi.Campaign.Spec in
  (* One worker on both sides: this compares elision against full
     replay, which the reference runs serially, and domain-scheduling
     overhead on small hosts would only add noise. *)
  let spec = Spec.(default |> with_trials trials |> with_seed 2 |> with_jobs 1) in
  (* Best-of-3 walls, like the ISS compare: runs are deterministic, so
     any rep disagreeing is a hard failure and the work counters divide
     exactly by the rep count. *)
  Gc.compact ();
  let reps = 3 in
  let best f =
    let p = ref None and best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let q = f () in
      let w = Unix.gettimeofday () -. t0 in
      (match !p with
      | None -> p := Some q
      | Some p0 ->
        if point_json p0 <> point_json q then
          failwith "fastforward compare: repeated run diverged");
      if w < !best then best := w
    done;
    (Option.get !p, !best)
  in
  let c_elided = Sfi_obs.Counter.make ~det:false "fastforward.trials_elided" in
  let c_restores = Sfi_obs.Counter.make ~det:false "fastforward.restores" in
  let e0 = Sfi_obs.Counter.value c_elided in
  let r0 = Sfi_obs.Counter.value c_restores in
  let p_full, full_wall_s =
    best (fun () -> Sfi_oracle.Ref_campaign.run ~trials ~seed:2 ~bench ~model ~freq_mhz)
  in
  let p_ff, ff_wall_s = best (fun () -> Sfi_fi.Campaign.run spec ~bench ~model ~freq_mhz) in
  if point_json p_full <> point_json p_ff then
    failwith "fastforward compare: fast-forwarded point differs from full replay";
  let speedup = full_wall_s /. Float.max 1e-9 ff_wall_s in
  Printf.printf
    "fastforward compare: kmeans x %d trials at %.0f MHz, full replay %.2f s, \
     fast-forward %.2f s (%.2fx; %d elided, %d suffix restores), results \
     bit-identical\n%!"
    trials freq_mhz full_wall_s ff_wall_s speedup
    ((Sfi_obs.Counter.value c_elided - e0) / reps)
    ((Sfi_obs.Counter.value c_restores - r0) / reps);
  speedup

let () =
  (* Instrumented, so the fast-forward compare can count its elided
     trials and restores. *)
  Sfi_obs.set_enabled true;
  if kernel_compare ~cycles:600 () < 1.0 then
    failwith "kernel compare: packed engine slower than scalar";
  if iss_compare () < 1.0 then
    failwith "iss compare: compiled engine slower than the interpreter";
  if fastforward_compare () < 2.0 then
    failwith "fastforward compare: less than 2x faster than full replay"
