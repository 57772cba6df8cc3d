open Sfi_util
open Sfi_netlist

type operand_profile = {
  profile_name : string;
  sample : Rng.t -> U32.t * U32.t;
}

let uniform32 =
  {
    profile_name = "uniform32";
    sample = (fun rng -> (Rng.bits32 rng, Rng.bits32 rng));
  }

let uniform16 =
  {
    profile_name = "uniform16";
    sample = (fun rng -> (Rng.bits32 rng land 0xFFFF, Rng.bits32 rng land 0xFFFF));
  }

let uniform8 =
  {
    profile_name = "uniform8";
    sample = (fun rng -> (Rng.bits32 rng land 0xFF, Rng.bits32 rng land 0xFF));
  }

let obs_runs = Sfi_obs.Counter.make "characterize.runs"

(* One trial = one randomized-operand DTA cycle. [classes] and [trials]
   count the gate-level Monte-Carlo work actually performed, so a run
   served whole from the persistent cache leaves both at zero — they
   depend on disk state, hence ~det:false (excluded from the
   determinism signature, which must match between cold and warm runs).
   [runs] counts requests and stays deterministic. *)
let obs_classes = Sfi_obs.Counter.make ~det:false "characterize.classes"

let obs_trials = Sfi_obs.Counter.make ~det:false "characterize.trials"

let obs_wall = Sfi_obs.Span.make "characterize.wall"

(* Packed-kernel utilization: [bitsim.lanes] sums the active lanes over
   [bitsim.batches] packed sweeps (their ratio against Bitsim.lanes is
   the fill factor; only the final partial batch of a class dilutes it).
   Cache-dependent work counts, hence ~det:false like the trials. *)
let obs_batches = Sfi_obs.Counter.make ~det:false "bitsim.batches"

let obs_lanes = Sfi_obs.Counter.make ~det:false "bitsim.lanes"

(* Wall time of each class's sweep tasks, summed over the domains that
   ran them. *)
let obs_class_spans =
  Array.of_list
    (List.map (fun cls -> Sfi_obs.Span.make ("characterize.class." ^ Op_class.name cls))
       Op_class.all)

type class_db = {
  cls : Op_class.t;
  profile_name : string;
  endpoint_cdfs : Cdf.t array;
  cycle_arrivals : float array array;
  max_settle : float;
}

type t = {
  vdd : float;
  setup_ps : float;
  cycles : int;
  classes : class_db array;
  max_settle : float;
}

let functional_mismatch cls a b got expect =
  failwith
    (Printf.sprintf
       "Characterize: DTA functional mismatch for %s a=%08x b=%08x: got %08x expected %08x"
       (Op_class.name cls) a b got expect)

(* The kernel's tail: one transpose pass over [cycle_arrivals] fills
   every endpoint's sample column, and [Cdf.of_samples_owned]
   sorts each column in place — instead of allocating (and then copying
   again) a fresh cycles-long array per endpoint. *)
let finish ~(profile : operand_profile) cls cycle_arrivals max_settle =
  let cycles = Array.length cycle_arrivals in
  let width = Alu.width in
  let cols = Array.init width (fun _ -> Array.make cycles 0.) in
  for k = 0 to cycles - 1 do
    let row = cycle_arrivals.(k) in
    for e = 0 to width - 1 do
      cols.(e).(k) <- row.(e)
    done
  done;
  {
    cls;
    profile_name = profile.profile_name;
    endpoint_cdfs = Array.map Cdf.of_samples_owned cols;
    cycle_arrivals;
    max_settle;
  }

(* The kernel: ⌈cycles/lanes⌉ sweeps of [Bitsim.lanes] trials per
   class, one pool task per sweep.

   A class's characterization is defined as a *chain* of DTA cycles —
   trial [k]'s events are launched by the operand transition from trial
   [k-1]'s settled state (the one-cycle-per-trial reference kernel the
   tests check this one against). The chain's operands are sampled up
   front in trial order ([sample_chain]), so the RNG stream is the
   chain's. Sweep [j] then replays trials [63j, 63j + active) on any DTA
   instance: it (1) stages every select word, (2) stages every lane's
   *predecessor* operands (lane l gets trial 63j + l - 1's pair; lane 0
   of sweep 0 starts from a = b = 0) and settles them with one
   functional [prime] pass — valid because the settled state of an
   acyclic circuit is a pure function of its inputs, so nothing carries
   over from whatever the instance ran before — and (3) stages the new
   operands and runs one masked-event [cycle], which plays out every
   lane's transition bit-identically to its place in the chain.
   Inactive lanes of a class's final partial sweep carry a = b = 0 on
   both sides of the transition and stay inert. The sweep writes its
   rows of [cycle_arrivals] by index and returns its max settle. *)
let sample_chain ~cycles ~rng (profile : operand_profile) =
  let a = Array.make cycles 0 and b = Array.make cycles 0 in
  for k = 0 to cycles - 1 do
    let x, y = profile.sample rng in
    a.(k) <- x;
    b.(k) <- y
  done;
  (a, b)

let sweep dta (alu : Alu.t) cls (a_ops, b_ops) cycle_arrivals ~first =
  let width = Alu.width in
  let endpoints = alu.Alu.result in
  let active = min Bitsim.lanes (Array.length a_ops - first) in
  Sfi_obs.Counter.incr obs_batches;
  Sfi_obs.Counter.add obs_lanes active;
  Array.iter
    (fun (c', net) ->
      Dta_packed.set_input_word dta net (if c' = cls then Bitsim.full_mask else 0))
    alu.Alu.selects;
  let carry_a = if first = 0 then 0 else a_ops.(first - 1) in
  let carry_b = if first = 0 then 0 else b_ops.(first - 1) in
  let mask = Bitsim.lane_mask ~active in
  let new_a = Array.make width 0 and new_b = Array.make width 0 in
  (* Bit-plane words of the new operands, and — as their lane-shift
     plus the predecessor trial's bit — of each lane's predecessor
     operands. *)
  for i = 0 to width - 1 do
    let wa = ref 0 and wb = ref 0 in
    for l = 0 to active - 1 do
      wa := !wa lor (((a_ops.(first + l) lsr i) land 1) lsl l);
      wb := !wb lor (((b_ops.(first + l) lsr i) land 1) lsl l)
    done;
    new_a.(i) <- !wa;
    new_b.(i) <- !wb;
    Dta_packed.set_input_word dta alu.Alu.a.(i)
      (((!wa lsl 1) lor ((carry_a lsr i) land 1)) land mask);
    Dta_packed.set_input_word dta alu.Alu.b.(i)
      (((!wb lsl 1) lor ((carry_b lsr i) land 1)) land mask)
  done;
  Dta_packed.prime dta;
  for i = 0 to width - 1 do
    Dta_packed.set_input_word dta alu.Alu.a.(i) new_a.(i);
    Dta_packed.set_input_word dta alu.Alu.b.(i) new_b.(i)
  done;
  Dta_packed.cycle dta;
  let max_settle = ref 0. in
  for l = 0 to active - 1 do
    let a = a_ops.(first + l) and b = b_ops.(first + l) in
    let got = Dta_packed.read_lane_vec dta endpoints ~lane:l in
    let expect = Op_class.apply cls a b in
    if got <> expect then functional_mismatch cls a b got expect;
    let row = cycle_arrivals.(first + l) in
    for e = 0 to width - 1 do
      let s = Dta_packed.settle_time dta endpoints.(e) ~lane:l in
      row.(e) <- s;
      if s > !max_settle then max_settle := s
    done
  done;
  !max_settle

(* Content fingerprint of everything the characterization result depends
   on. The circuit's [base_delay] array already folds in sizing, process
   variation and corner scaling, so the netlist structure plus delays
   plus the run parameters determine the database bit-for-bit. *)
let fingerprint ~cycles ~seed ~setup_ps ~vdd_model ~lib
    ~(profile_for : Op_class.t -> operand_profile) ~vdd (alu : Alu.t) =
  let c = alu.Alu.circuit in
  let fp = Sfi_cache.Fingerprint.create "sfi-chardb/1" in
  let open Sfi_cache.Fingerprint in
  add_int fp c.Circuit.n_nets;
  add_int_array fp c.Circuit.kind_code;
  add_int_array fp c.Circuit.gate_out;
  add_int_array fp c.Circuit.fanin_off;
  add_int_array fp c.Circuit.fanin_net;
  add_float_array fp c.Circuit.base_delay;
  Array.iter
    (fun (name, net) ->
      add_string fp name;
      add_int fp net)
    c.Circuit.pis;
  Array.iter
    (fun (name, net) ->
      add_string fp name;
      add_int fp net)
    c.Circuit.pos;
  add_string fp (Cell_lib.to_text lib);
  List.iter
    (fun (v, d) ->
      add_float fp v;
      add_float fp d)
    (Vdd_model.anchors vdd_model);
  add_float fp vdd;
  add_float fp setup_ps;
  add_int fp cycles;
  add_int fp seed;
  List.iter (fun cls -> add_string fp (profile_for cls).profile_name) Op_class.all;
  hex fp

(* Chains first, in class order, then one pool task per (class, sweep).
   Neither the operands nor the sweep boundaries depend on scheduling,
   each sweep writes only its own rows, and a class's [max_settle] is a
   max over its sweeps, so the database is bit-identical for every job
   count. A task borrows a DTA instance from the run's free list (an
   instance does not depend on the class: the selects are inputs). The
   calling domain creates one instance per executor before dispatch, so
   the free list is never empty and no instance outlives the run. *)
let compute ~cycles ~seed ~vdd_model ~lib ~profile_for ?jobs ~vdd ~setup_ps alu =
  let root = Rng.of_int seed in
  let classes = Array.of_list Op_class.all in
  let n_classes = Array.length classes in
  (* [Array.init] applies its function in order: the per-class streams
     are split from the root in class order. *)
  let rngs = Array.init n_classes (fun _ -> Rng.split root) in
  let chains =
    Array.mapi (fun ci cls -> sample_chain ~cycles ~rng:rngs.(ci) (profile_for cls)) classes
  in
  Sfi_obs.Counter.add obs_classes n_classes;
  Sfi_obs.Counter.add obs_trials (n_classes * cycles);
  let arrivals = Array.map (fun _ -> Array.make_matrix cycles Alu.width 0.) classes in
  let sweeps = (cycles + Bitsim.lanes - 1) / Bitsim.lanes in
  let n_tasks = n_classes * sweeps in
  let lock = Mutex.create () in
  (* Task [i] is sweep [i mod sweeps] of class [i / sweeps]. *)
  let task free i =
    let ci = i / sweeps in
    let t0 = Sfi_obs.Span.start () in
    let dta =
      Mutex.protect lock (fun () ->
          let dta = List.hd !free in
          free := List.tl !free;
          dta)
    in
    let settle =
      sweep dta alu classes.(ci) chains.(ci) arrivals.(ci)
        ~first:((i mod sweeps) * Bitsim.lanes)
    in
    Mutex.protect lock (fun () -> free := dta :: !free);
    Sfi_obs.Span.stop obs_class_spans.(ci) t0;
    settle
  in
  let classes =
    Pool.using ?jobs (fun pool ->
        let free =
          ref
            (List.init (min (Pool.jobs pool) n_tasks) (fun _ ->
                 Dta_packed.create ~vdd ~vdd_model ~lib ~watch:alu.Alu.result
                   alu.Alu.circuit))
        in
        let settles = Pool.parallel_init pool n_tasks (task free) in
        Pool.parallel_init pool n_classes (fun ci ->
            let max_settle = ref 0. in
            for i = ci * sweeps to ((ci + 1) * sweeps) - 1 do
              max_settle := Float.max !max_settle settles.(i)
            done;
            finish ~profile:(profile_for classes.(ci)) classes.(ci) arrivals.(ci)
              !max_settle))
  in
  let max_settle =
    Array.fold_left (fun acc (c : class_db) -> Float.max acc c.max_settle) 0. classes
  in
  { vdd; setup_ps; cycles; classes; max_settle }

let run ?(cycles = 8000) ?(seed = 0xD7A) ?(setup_ps = Sta.default_setup_ps)
    ?(vdd_model = Vdd_model.default) ?(lib = Cell_lib.default)
    ?(profile_for = fun _ -> uniform32) ?spec ~vdd (alu : Alu.t) =
  if cycles <= 0 then invalid_arg "Characterize.run: cycles must be positive";
  (* Only the spec's job count applies; its other fields (trial policy,
     seed, checkpoint) describe Monte-Carlo campaigns — in particular
     the characterization seed stays [?seed], keeping chardb cache
     fingerprints stable across campaign-spec changes. *)
  let jobs = Option.bind spec (fun (s : Spec.t) -> s.Spec.jobs) in
  Sfi_obs.Counter.incr obs_runs;
  Sfi_obs.Span.time obs_wall @@ fun () ->
  let compute () =
    compute ~cycles ~seed ~vdd_model ~lib ~profile_for ?jobs ~vdd ~setup_ps alu
  in
  (* No in-process tier: every call without a cache directory
     recomputes, so tests and the kernel gate time the real work. The
     key hashes the whole netlist, so it is built only when a directory
     is set. *)
  if not (Sfi_cache.enabled ()) then compute ()
  else
    Sfi_cache.memo ~namespace:"chardb"
      ~key:(fingerprint ~cycles ~seed ~setup_ps ~vdd_model ~lib ~profile_for ~vdd alu)
      ~valid:(fun t ->
        t.vdd = vdd && t.cycles = cycles && Array.length t.classes = List.length Op_class.all)
      compute

let class_db t cls = t.classes.(Op_class.index cls)

(* The violation condition is (settle + setup) * scale > period, i.e.
   settle > period / scale - setup. *)
let threshold t ~period_ps ~scale = (period_ps /. scale) -. t.setup_ps

let error_probability t cls ~endpoint ~period_ps ~scale =
  let db = class_db t cls in
  Cdf.prob_greater db.endpoint_cdfs.(endpoint) (threshold t ~period_ps ~scale)

let class_first_failure_mhz t cls ~scale =
  let db = class_db t cls in
  (* Zero error probability iff period/scale - setup >= max settle. *)
  let period = (db.max_settle +. t.setup_ps) *. scale in
  1e6 /. period

(* Campaign per-cycle hot path: a plain for loop (the closure an
   Array.iteri would allocate is per call here, not per element). *)
let violation_mask t cls ~cycle ~period_ps ~scale =
  let db = class_db t cls in
  let row = db.cycle_arrivals.(cycle) in
  let thr = threshold t ~period_ps ~scale in
  let mask = ref 0 in
  for e = 0 to Array.length row - 1 do
    if Array.unsafe_get row e > thr then mask := !mask lor (1 lsl e)
  done;
  !mask
