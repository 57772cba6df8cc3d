open Sfi_util
open Sfi_timing
module Json = Sfi_obs.Json

type sampling = Independent | Vector_correlated

type features = {
  technique : string;
  timing_data : string;
  multi_vdd : bool;
  vdd_noise : bool;
  gate_level_aware : string;
  instruction_aware : bool;
}

type instance = {
  sample : cycle:int -> cls:Op_class.t -> a:U32.t -> b:U32.t -> result:U32.t -> U32.t;
  trial_start : Sfi_sim.Memory.t -> int;
  cannot_inject : bool;
  skippable_gaussians : Op_class.t -> int option;
}

type t = {
  key : string;
  features : features;
  cycle_dependent : bool;
  params : (string * Json.t) list;
  fingerprint : Sfi_cache.Fingerprint.t -> unit;
  instantiate : count_obs:bool -> freq_mhz:float -> rng:Rng.t -> instance;
}

let key t = t.key

let features t = t.features

let cycle_dependent t = t.cycle_dependent

let params t = t.params

let to_string t =
  if t.params = [] then t.key else t.key ^ Json.to_string (Json.Obj t.params)

let add_fingerprint t fp = t.fingerprint fp

let instantiate t ~count_obs ~freq_mhz ~rng = t.instantiate ~count_obs ~freq_mhz ~rng

(* Observability. These measure how a sample was computed, not what it
   was: which fast path short-circuited the per-call math. Fast-forward
   elides fault-free work entirely, so they are ~det:false like the
   other elided-work families; the names predate the registry (the
   logic lived in {!Injector}) and are kept stable for obs consumers.
   [skip_table_hits]: the quantized noise-table fast path returned a
   provably-empty mask; [class_cannot_hits]: the per-class worst-case
   short-circuit; [sta_mask_prunes]: static-timing binary searches that
   resolved to an empty mask. *)
let obs_skip_table = Sfi_obs.Counter.make ~det:false "injector.skip_table_hits"

let obs_class_cannot = Sfi_obs.Counter.make ~det:false "injector.class_cannot_hits"

let obs_sta_prune = Sfi_obs.Counter.make ~det:false "injector.sta_mask_prunes"

let no_trial_start _ = 0

(* ---------- shared timing machinery (models B/B+/C/C-corr/glitch) ---------- *)

(* Worst-case (slowest) delay modulation this noise model can produce at
   this operating voltage, relative to the voltage the timing data was
   taken at. *)
let worst_scale ~vdd_model ~vdd ~ref_vdd ~noise =
  Vdd_model.derate vdd_model (vdd -. Noise.max_excursion noise)
  /. Vdd_model.derate vdd_model ref_vdd

(* Safety margin (ps) for the precomputed conservative thresholds below.
   The alpha-power derate is monotone in exact arithmetic but only
   ulp-level monotone through [**]; anything within [slack_ps] of a
   precomputed bound falls through to the exact computation, so the fast
   paths can only skip work that provably produces an empty mask. *)
let slack_ps = 1e-6

(* Quantized noise-excursion -> fault-threshold table. Bucket [i] stores
   the threshold (period /. scale, in characterization-time picoseconds)
   evaluated at the bucket's lower edge; since delay scale decreases — and
   the threshold therefore increases — with rising instantaneous supply,
   that entry is a lower bound on the exact threshold for every noise
   value in the bucket. A path set whose worst arrival sits below the
   bound (minus {!slack_ps}) cannot fault, and the per-call [**]
   evaluations are skipped; otherwise the exact threshold is computed as
   before, so injected masks are bit-identical to the direct
   implementation. *)
type noise_table = { lo : float; inv_step : float; thr : float array }

let noise_buckets = 256

let make_noise_table ~vdd_model ~vdd ~denom ~period ~max_exc ~offset =
  let step = 2. *. max_exc /. float_of_int noise_buckets in
  let thr =
    Array.init (noise_buckets + 1) (fun i ->
        let nv = -.max_exc +. (step *. float_of_int i) in
        let scale = Vdd_model.derate vdd_model (vdd +. nv) /. denom in
        (period /. scale) -. offset)
  in
  { lo = -.max_exc; inv_step = 1. /. step; thr }

(* Conservative threshold lower bound for noise value [nv]. *)
let table_threshold tbl nv =
  let i = int_of_float ((nv -. tbl.lo) *. tbl.inv_step) in
  let i = if i < 0 then 0 else if i > noise_buckets then noise_buckets else i in
  tbl.thr.(i) -. slack_ps

(* Endpoints sorted by decreasing arrival with cumulative-OR prefix
   masks: the mask at a threshold is the prefix covering exactly the
   arrivals strictly above it, found by binary search instead of a
   32-endpoint scan. *)
type sorted_endpoints = { sorted_arrivals : float array; prefix_masks : int array }

let sort_endpoints with_setup =
  let order =
    let o = Array.init (Array.length with_setup) Fun.id in
    Array.sort (fun i j -> compare with_setup.(j) with_setup.(i)) o;
    o
  in
  let sorted_arrivals = Array.map (fun e -> with_setup.(e)) order in
  let prefix_masks =
    let n = Array.length order in
    let pm = Array.make (n + 1) 0 in
    for k = 0 to n - 1 do
      pm.(k + 1) <- pm.(k) lor (1 lsl order.(k))
    done;
    pm
  in
  { sorted_arrivals; prefix_masks }

let mask_at { sorted_arrivals; prefix_masks } threshold =
  (* threshold = period / scale; endpoint faults iff arrival+setup
     exceeds it. Find how many sorted arrivals are > threshold. *)
  let n = Array.length sorted_arrivals in
  if n = 0 || sorted_arrivals.(0) <= threshold then 0
  else begin
    (* Invariant: arrivals.(lo) > threshold >= arrivals.(hi). *)
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if mid < n && sorted_arrivals.(mid) > threshold then lo := mid
      else hi := mid
    done;
    prefix_masks.(!hi)
  end

(* ---------- exact CDF ranks (model C's fault path) ---------- *)

(* Model C draws, per live endpoint and ALU cycle, a Bernoulli with
   [p = Cdf.prob_greater cdf threshold]: the rank of the threshold among
   the endpoint's sorted settle samples. Per class, a guide built once
   per model replaces that binary search: a monotone bucket function [k]
   over the class's sample range, and a bucket-major table whose entry
   [first.(b * n_endpoints + e)] is the index of endpoint [e]'s first
   sample with [k >= b]. A rank is then two table reads plus a look at
   the samples in the threshold's own bucket: a short scan, after
   bisection while that bucket still holds many samples.

   Exactness. [k] is monotone: subtracting a constant and multiplying by
   a non-negative one round monotonically, truncation is monotone, and
   the clamps are taken in floating point (NaN, like everything below
   the range, lands in bucket 0). So a sample in a lower bucket than [x]
   cannot exceed [x], and a sample in a higher bucket cannot be [<= x]:
   the rank equals [Cdf.count_leq] and [p] is bit-identical.

   The guide lives in the model closure only (samples are shared, not
   copied) and never reaches fingerprints or caches. Its lookups are
   [@inline] and stay in this module: dune's dev profile compiles with
   [-opaque], and a cross-module call would box the float threshold. *)
module Rank = struct
  type t = {
    lo : float;
    inv_width : float;
    n_endpoints : int;
    first : int array;
    samples : float array array;
  }

  let buckets = 512

  (* Bisect the threshold's bucket down to at most this many samples
     before scanning it. *)
  let scan_max = 8

  let[@inline] bucket g x =
    let y = (x -. g.lo) *. g.inv_width in
    if y >= 0. then if y < float_of_int buckets then int_of_float y else buckets - 1
    else 0

  (* The table row of [x]'s bucket, shared by all endpoints. *)
  let[@inline] row g x = bucket g x * g.n_endpoints

  let build cdfs =
    let lo = Array.fold_left (fun m c -> Float.min m (Cdf.min_value c)) infinity cdfs in
    let hi =
      Array.fold_left (fun m c -> Float.max m (Cdf.max_value c)) neg_infinity cdfs
    in
    let lo, inv_width =
      if hi > lo then (lo, float_of_int buckets /. (hi -. lo)) else (0., 0.)
    in
    let n_endpoints = Array.length cdfs in
    let samples = Array.map Cdf.samples cdfs in
    let first = Array.make ((buckets + 1) * n_endpoints) 0 in
    let g = { lo; inv_width; n_endpoints; first; samples } in
    Array.iteri
      (fun e t ->
        let i = ref 0 in
        for b = 0 to buckets do
          while !i < Array.length t && bucket g t.(!i) < b do
            incr i
          done;
          first.((b * n_endpoints) + e) <- !i
        done)
      samples;
    g

  (* Samples of endpoint [e] that are [<= x]; [row] is [row g x]. *)
  let[@inline] count_in g ~row e x =
    let t = Array.unsafe_get g.samples e in
    (* Invariant: samples below [lo] are [<= x]; samples from [hi] on
       are not. *)
    let lo = ref (Array.unsafe_get g.first (row + e))
    and hi = ref (Array.unsafe_get g.first (row + g.n_endpoints + e)) in
    while !hi - !lo > scan_max do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get t mid <= x then lo := mid + 1 else hi := mid
    done;
    while !lo < !hi && Array.unsafe_get t !lo <= x do
      incr lo
    done;
    !lo

  let[@inline] prob_in g ~row e x =
    let n = Array.length (Array.unsafe_get g.samples e) in
    float_of_int (n - count_in g ~row e x) /. float_of_int n

  let check g endpoint =
    if endpoint < 0 || endpoint >= g.n_endpoints then invalid_arg "Model.Rank: endpoint"

  let count_leq g ~endpoint x =
    check g endpoint;
    count_in g ~row:(row g x) endpoint x

  let prob_greater g ~endpoint x =
    check g endpoint;
    prob_in g ~row:(row g x) endpoint x
end

(* ---------- fingerprint helpers ---------- *)

let fp_noise fp noise =
  Sfi_cache.Fingerprint.add_float fp (Noise.sigma noise);
  Sfi_cache.Fingerprint.add_float fp (Noise.clip noise)

let fp_vdd_model fp vm =
  List.iter
    (fun (v, d) ->
      Sfi_cache.Fingerprint.add_float fp v;
      Sfi_cache.Fingerprint.add_float fp d)
    (Vdd_model.anchors vm)

(* Key + codec version + canonical parameters: the fingerprint prefix of
   every post-variant model (the built-ins keep their historic byte
   sequences instead, so existing checkpoints and goldens stay valid). *)
let fp_keyed ~key ~version ~params fp =
  let open Sfi_cache.Fingerprint in
  add_string fp key;
  add_int fp version;
  List.iter
    (fun (name, v) ->
      add_string fp name;
      match v with
      | Json.Int i -> add_int fp i
      | Json.Float f -> add_float fp f
      | Json.Bool b -> add_int fp (if b then 1 else 0)
      | Json.String s -> add_string fp s
      | Json.Null | Json.List _ | Json.Obj _ ->
        add_string fp (Json.to_string v))
    params

(* ---------- Table 2 features ---------- *)

let features_a =
  {
    technique = "fixed probability";
    timing_data = "none";
    multi_vdd = false;
    vdd_noise = false;
    gate_level_aware = "no";
    instruction_aware = false;
  }

let features_b =
  {
    technique = "fixed period violation";
    timing_data = "STA";
    multi_vdd = true;
    vdd_noise = false;
    gate_level_aware = "partially";
    instruction_aware = false;
  }

let features_bplus =
  {
    technique = "modulated period violation";
    timing_data = "STA";
    multi_vdd = true;
    vdd_noise = true;
    gate_level_aware = "partially";
    instruction_aware = false;
  }

let features_c =
  {
    technique = "probabilistic period violation (using CDFs)";
    timing_data = "DTA";
    multi_vdd = true;
    vdd_noise = true;
    gate_level_aware = "yes";
    instruction_aware = true;
  }

let features_glitch =
  {
    technique = "voltage glitch in attacker-chosen cycle windows";
    timing_data = "STA";
    multi_vdd = true;
    vdd_noise = false;
    gate_level_aware = "partially";
    instruction_aware = false;
  }

let features_skip =
  {
    technique = "instruction skip (EX result latch suppressed)";
    timing_data = "none";
    multi_vdd = false;
    vdd_noise = false;
    gate_level_aware = "no";
    instruction_aware = true;
  }

let features_opcode =
  {
    technique = "opcode corruption (ALU class substitution)";
    timing_data = "none";
    multi_vdd = false;
    vdd_noise = false;
    gate_level_aware = "no";
    instruction_aware = true;
  }

let features_state =
  {
    technique = "architectural-state bit flips at trial start";
    timing_data = "none";
    multi_vdd = false;
    vdd_noise = false;
    gate_level_aware = "no";
    instruction_aware = false;
  }

let feature_rows () =
  [ ("A", features_a); ("B", features_b); ("B+", features_bplus); ("C", features_c) ]

(* ---------- model A ---------- *)

let make_a ~bit_flip_prob =
  {
    key = "A";
    features = features_a;
    cycle_dependent = false;
    params = [ ("p", Json.Float bit_flip_prob) ];
    fingerprint =
      (fun fp ->
        Sfi_cache.Fingerprint.add_string fp "A";
        Sfi_cache.Fingerprint.add_float fp bit_flip_prob);
    instantiate =
      (fun ~count_obs:_ ~freq_mhz:_ ~rng ->
        let cannot = bit_flip_prob <= 0. in
        {
          sample =
            (fun ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ ->
              if cannot then 0
              else begin
                let mask = ref 0 in
                for e = 0 to 31 do
                  if Rng.bernoulli rng bit_flip_prob then mask := !mask lor (1 lsl e)
                done;
                !mask
              end);
          trial_start = no_trial_start;
          cannot_inject = cannot;
          skippable_gaussians = (if cannot then fun _ -> Some 0 else fun _ -> None);
        });
  }

(* ---------- models B / B+ ---------- *)

let make_static_timing ~key ~features ~endpoint_arrivals ~setup_ps ~vdd ~noise
    ~vdd_model =
  let with_setup = Array.map (fun a -> a +. setup_ps) endpoint_arrivals in
  let max_arrival = Array.fold_left Float.max 0. with_setup in
  let sorted = sort_endpoints with_setup in
  let has_noise = Noise.sigma noise > 0. in
  let denom = Vdd_model.derate vdd_model vdd in
  let ws = worst_scale ~vdd_model ~vdd ~ref_vdd:vdd ~noise in
  {
    key;
    features;
    cycle_dependent = false;
    params = [];
    fingerprint =
      (fun fp ->
        (* Historic bytes: B and B+ share the "B" tag; the noise sigma
           inside the hashed noise parameters is what separates them. *)
        let open Sfi_cache.Fingerprint in
        add_string fp "B";
        add_float_array fp endpoint_arrivals;
        add_float fp setup_ps;
        add_float fp vdd;
        fp_noise fp noise;
        fp_vdd_model fp vdd_model);
    instantiate =
      (fun ~count_obs ~freq_mhz ~rng ->
        let period = Sta.period_ps_of_mhz freq_mhz in
        let cannot = max_arrival *. ws <= period in
        let static_mask = mask_at sorted period in
        let tbl =
          if (not has_noise) || cannot then None
          else
            Some
              (make_noise_table ~vdd_model ~vdd ~denom ~period
                 ~max_exc:(Noise.max_excursion noise) ~offset:0.)
        in
        {
          sample =
            (fun ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ ->
              if cannot then 0
              else if not has_noise then static_mask
              else begin
                let nv = Noise.draw noise rng in
                match tbl with
                | Some tbl when max_arrival <= table_threshold tbl nv ->
                  (* Even the bucket's most pessimistic threshold clears
                     the slowest endpoint: the mask is provably 0. *)
                  if count_obs then Sfi_obs.Counter.incr obs_skip_table;
                  0
                | _ ->
                  let scale = Vdd_model.derate vdd_model (vdd +. nv) /. denom in
                  let mask = mask_at sorted (period /. scale) in
                  if count_obs && mask = 0 then Sfi_obs.Counter.incr obs_sta_prune;
                  mask
              end);
          trial_start = no_trial_start;
          cannot_inject = cannot;
          skippable_gaussians =
            (if cannot || ((not has_noise) && static_mask = 0) then fun _ -> Some 0
             else fun _ -> None);
        });
  }

(* ---------- models C / C-corr ---------- *)

let make_statistical ~key ~db ~vdd ~noise ~vdd_model ~sampling =
  let ref_vdd = db.Characterize.vdd in
  let setup = db.Characterize.setup_ps in
  let denom = Vdd_model.derate vdd_model ref_vdd in
  let ws = Vdd_model.derate vdd_model (vdd -. Noise.max_excursion noise) /. denom in
  let classes = db.Characterize.classes in
  (* Per class: per-endpoint maximum settle, for cheap skipping. *)
  let class_caps =
    Array.map
      (fun (c : Characterize.class_db) ->
        Array.map Cdf.max_value c.Characterize.endpoint_cdfs)
      classes
  in
  let guides =
    match sampling with
    | Independent ->
      Array.map
        (fun (c : Characterize.class_db) -> Rank.build c.Characterize.endpoint_cdfs)
        classes
    | Vector_correlated -> [||]
  in
  let has_noise = Noise.sigma noise > 0. in
  {
    key;
    features = features_c;
    cycle_dependent = false;
    params = [];
    fingerprint =
      (fun fp ->
        let open Sfi_cache.Fingerprint in
        add_string fp "C";
        add_float fp db.Characterize.vdd;
        add_float fp db.Characterize.setup_ps;
        add_int fp db.Characterize.cycles;
        Array.iter
          (fun (cdb : Characterize.class_db) ->
            add_string fp cdb.Characterize.profile_name;
            Array.iter (add_float_array fp) cdb.Characterize.cycle_arrivals)
          db.Characterize.classes;
        add_float fp vdd;
        fp_noise fp noise;
        fp_vdd_model fp vdd_model;
        add_string fp
          (match sampling with Independent -> "indep" | Vector_correlated -> "corr"));
    instantiate =
      (fun ~count_obs ~freq_mhz ~rng ->
        let period = Sta.period_ps_of_mhz freq_mhz in
        let cannot = (db.Characterize.max_settle +. setup) *. ws <= period in
        (* Per class: even the worst-case noise excursion leaves the
           class's slowest characterized path inside the period, so its
           instructions can never fault and the per-call scale/threshold
           math is skipped. (Same algebra as the per-call check at the
           worst-case threshold, with a slack so [**] rounding cannot
           flip the verdict.) *)
        let class_cannot =
          Array.map
            (fun (c : Characterize.class_db) ->
              c.Characterize.max_settle <= (period /. ws) -. setup -. slack_ps)
            classes
        in
        (* With sigma = 0 every draw is exactly 0, so the threshold is a
           constant; precompute it once. *)
        let static_threshold =
          (period /. (Vdd_model.derate vdd_model (vdd +. 0.) /. denom)) -. setup
        in
        let tbl =
          if (not has_noise) || cannot then None
          else
            Some
              (make_noise_table ~vdd_model ~vdd ~denom ~period
                 ~max_exc:(Noise.max_excursion noise) ~offset:setup)
        in
        {
          sample =
            (fun ~cycle:_ ~cls ~a:_ ~b:_ ~result:_ ->
              if cannot then 0
              else begin
                let ci = Op_class.index cls in
                if Array.unsafe_get class_cannot ci then begin
                  (* A sigma = 0 draw consumes no randomness and a
                     positive sigma draw is consumed here, so skipping
                     the rest of the hook leaves the RNG stream
                     identical. *)
                  if has_noise then ignore (Noise.draw noise rng : float);
                  if count_obs then Sfi_obs.Counter.incr obs_class_cannot;
                  0
                end
                else begin
                  let nv = if has_noise then Noise.draw noise rng else 0. in
                  let cdb = classes.(ci) in
                  let skip =
                    match tbl with
                    | Some tbl -> cdb.Characterize.max_settle <= table_threshold tbl nv
                    | None -> false
                  in
                  if skip then begin
                    if count_obs then Sfi_obs.Counter.incr obs_skip_table;
                    0
                  end
                  else begin
                    let threshold =
                      if has_noise then
                        let scale = Vdd_model.derate vdd_model (vdd +. nv) /. denom in
                        (period /. scale) -. setup
                      else static_threshold
                    in
                    if cdb.Characterize.max_settle <= threshold then 0
                    else begin
                      match sampling with
                      | Vector_correlated ->
                        let k = Rng.int rng db.Characterize.cycles in
                        let row = cdb.Characterize.cycle_arrivals.(k) in
                        let mask = ref 0 in
                        for e = 0 to Array.length row - 1 do
                          if Array.unsafe_get row e > threshold then
                            mask := !mask lor (1 lsl e)
                        done;
                        !mask
                      | Independent ->
                        let caps = class_caps.(ci) and g = guides.(ci) in
                        let row = Rank.row g threshold in
                        let mask = ref 0 in
                        for e = 0 to Array.length caps - 1 do
                          if caps.(e) > threshold
                             && Rng.bernoulli rng (Rank.prob_in g ~row e threshold)
                          then mask := !mask lor (1 lsl e)
                        done;
                        !mask
                    end
                  end
                end
              end);
          trial_start = no_trial_start;
          cannot_inject = cannot;
          skippable_gaussians =
            (if cannot then fun _ -> Some 0
             else
               fun cls ->
                 if Array.unsafe_get class_cannot (Op_class.index cls) then
                   Some (if has_noise then 1 else 0)
                 else None);
        });
  }

(* ---------- attack family: voltage glitch ---------- *)

let make_glitch ~params ~endpoint_arrivals ~setup_ps ~vdd ~vdd_model ~start ~len
    ~every ~drop_mv =
  let drop = drop_mv /. 1000. in
  let denom = Vdd_model.derate vdd_model vdd in
  let glitch_scale = Vdd_model.derate vdd_model (vdd -. drop) /. denom in
  if
    vdd -. drop <= Vdd_model.vth vdd_model +. 0.01
    || Float.is_nan glitch_scale || glitch_scale <= 0.
  then
    Error
      (Printf.sprintf
         "model glitch: drop_mv=%g pulls the supply to %.3f V, outside the \
          Vdd-delay model's validity"
         drop_mv (vdd -. drop))
  else begin
    let with_setup = Array.map (fun a -> a +. setup_ps) endpoint_arrivals in
    let sorted = sort_endpoints with_setup in
    Ok
      {
        key = "glitch";
        features = features_glitch;
        cycle_dependent = true;
        params;
        fingerprint =
          (fun fp ->
            fp_keyed ~key:"glitch" ~version:1 ~params fp;
            let open Sfi_cache.Fingerprint in
            add_float_array fp endpoint_arrivals;
            add_float fp setup_ps;
            add_float fp vdd;
            fp_vdd_model fp vdd_model);
        instantiate =
          (fun ~count_obs ~freq_mhz ~rng:_ ->
            let period = Sta.period_ps_of_mhz freq_mhz in
            (* Inside an attack window the instantaneous supply is
               [vdd - drop]: the derated threshold exposes every
               endpoint whose path no longer fits the period. Outside,
               plain model-B statics apply (empty below the STA limit). *)
            let glitch_mask = mask_at sorted (period /. glitch_scale) in
            let base_mask = mask_at sorted period in
            let cannot = glitch_mask = 0 && base_mask = 0 in
            let in_window cycle =
              cycle >= start && len > 0
              &&
              let off = cycle - start in
              if every > 0 then off mod every < len else off < len
            in
            {
              sample =
                (fun ~cycle ~cls:_ ~a:_ ~b:_ ~result:_ ->
                  if cannot then 0
                  else begin
                    let mask = if in_window cycle then glitch_mask else base_mask in
                    if count_obs && mask = 0 then
                      Sfi_obs.Counter.incr obs_sta_prune;
                    mask
                  end);
              trial_start = no_trial_start;
              cannot_inject = cannot;
              skippable_gaussians =
                (* The hook consumes no randomness, but its outcome
                   depends on the cycle number, which the fast-forward
                   probe does not model — [cycle_dependent] keeps the
                   probe away entirely. *)
                (if cannot then fun _ -> Some 0 else fun _ -> None);
            });
      }
  end

(* ---------- attack family: instruction skip ---------- *)

let make_skip ~params ~p =
  {
    key = "skip";
    features = features_skip;
    cycle_dependent = true;
    params;
    fingerprint = fp_keyed ~key:"skip" ~version:1 ~params;
    instantiate =
      (fun ~count_obs:_ ~freq_mhz:_ ~rng ->
        let cannot = p <= 0. in
        (* The EX result latch: a skipped instruction leaves the
           previously written value in place, so the architectural
           result becomes whatever the last ALU instruction produced
           (0 before the first one, matching a reset register). *)
        let last = ref 0 in
        {
          sample =
            (fun ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result ->
              if cannot then 0
              else if Rng.bernoulli rng p then result lxor !last
              else begin
                last := result;
                0
              end);
          trial_start = no_trial_start;
          cannot_inject = cannot;
          skippable_gaussians = (if cannot then fun _ -> Some 0 else fun _ -> None);
        });
  }

(* ---------- attack family: opcode corruption ---------- *)

let opcode_classes = Array.of_list Op_class.all

let make_opcode ~params ~p =
  {
    key = "opcode";
    features = features_opcode;
    cycle_dependent = true;
    params;
    fingerprint = fp_keyed ~key:"opcode" ~version:1 ~params;
    instantiate =
      (fun ~count_obs:_ ~freq_mhz:_ ~rng ->
        let cannot = p <= 0. in
        {
          sample =
            (fun ~cycle:_ ~cls ~a ~b ~result ->
              if cannot then 0
              else if Rng.bernoulli rng p then begin
                (* Substitute a uniformly drawn *other* ALU class on the
                   same operands: the mask turns [result] into what the
                   corrupted opcode would have produced. *)
                let i = Rng.int rng (Op_class.count - 1) in
                let j = if i >= Op_class.index cls then i + 1 else i in
                result lxor Op_class.apply opcode_classes.(j) a b
              end
              else 0);
          trial_start = no_trial_start;
          cannot_inject = cannot;
          skippable_gaussians = (if cannot then fun _ -> Some 0 else fun _ -> None);
        });
  }

(* ---------- attack family: architectural-state flips ---------- *)

let make_state ~params ~flips ~word_lo ~word_hi =
  {
    key = "state";
    features = features_state;
    cycle_dependent = true;
    params;
    fingerprint = fp_keyed ~key:"state" ~version:1 ~params;
    instantiate =
      (fun ~count_obs:_ ~freq_mhz:_ ~rng ->
        {
          sample = (fun ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ -> 0);
          trial_start =
            (fun mem ->
              if flips <= 0 then 0
              else begin
                let words = Sfi_sim.Memory.size mem / 4 in
                let hi = if word_hi <= 0 then words else min word_hi words in
                let lo = min (max 0 word_lo) hi in
                let span = hi - lo in
                if span <= 0 then 0
                else begin
                  for _ = 1 to flips do
                    let addr = 4 * (lo + Rng.int rng span) in
                    let bit = Rng.int rng 32 in
                    Sfi_sim.Memory.write_u32 mem addr
                      (U32.flip_bits (Sfi_sim.Memory.read_u32 mem addr)
                         ~mask:(1 lsl bit))
                  done;
                  flips
                end
              end);
          cannot_inject = flips <= 0;
          skippable_gaussians = (fun _ -> Some 0);
        });
  }

(* ---------- resources ---------- *)

type resources = {
  vdd : float;
  noise : Noise.t;
  vdd_model : Vdd_model.t;
  setup_ps : float;
  endpoint_arrivals : float array option;
  db : Characterize.t option;
}

let default_resources =
  {
    vdd = Vdd_model.nominal_voltage;
    noise = Noise.none;
    vdd_model = Vdd_model.default;
    setup_ps = Sta.default_setup_ps;
    endpoint_arrivals = None;
    db = None;
  }

(* ---------- parameter codec ---------- *)

let json_kind = function
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.Int _ -> "int"
  | Json.Float _ -> "float"
  | Json.String _ -> "string"
  | Json.List _ -> "list"
  | Json.Obj _ -> "object"

(* Overrides applied over the entry's defaults, in default order —
   the canonical form [params] reports and [to_string] prints. Unknown
   names and type mismatches are errors (ints coerce to float fields). *)
let merge_params ~key ~defaults ~params =
  let rec check = function
    | [] -> Ok ()
    | (name, v) :: rest -> (
      match List.assoc_opt name defaults with
      | None ->
        Error
          (Printf.sprintf "model %s: unknown parameter %S (expected: %s)" key name
             (String.concat ", " (List.map fst defaults)))
      | Some d -> (
        match (d, v) with
        | Json.Float _, (Json.Float _ | Json.Int _)
        | Json.Int _, Json.Int _
        | Json.Bool _, Json.Bool _
        | Json.String _, Json.String _ ->
          check rest
        | _ ->
          Error
            (Printf.sprintf "model %s: parameter %S must be a %s (got %s)" key name
               (json_kind d) (json_kind v))))
  in
  match check params with
  | Error _ as e -> e
  | Ok () ->
    Ok
      (List.map
         (fun (name, d) ->
           match (d, List.assoc_opt name params) with
           | Json.Float _, Some (Json.Int i) -> (name, Json.Float (float_of_int i))
           | _, Some v -> (name, v)
           | _, None -> (name, d))
         defaults)

let pfloat merged name =
  match List.assoc name merged with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> invalid_arg ("pfloat " ^ name)

let pint merged name =
  match List.assoc name merged with Json.Int i -> i | _ -> invalid_arg ("pint " ^ name)

(* ---------- the registry ---------- *)

module Registry = struct
  type entry = {
    key : string;
    doc : string;
    version : int;
    features : features;
    cycle_dependent : bool;
    wants_arrivals : bool;
    wants_db : bool;
    default_params : (string * Json.t) list;
    build :
      resources:resources -> params:(string * Json.t) list -> (t, string) result;
  }

  let table : entry list ref = ref []

  let canon k = String.lowercase_ascii k

  let find k =
    let k = canon k in
    List.find_opt (fun e -> canon e.key = k) !table

  let register e =
    if find e.key <> None then
      invalid_arg (Printf.sprintf "Model.Registry.register: duplicate key %S" e.key);
    table := !table @ [ e ]

  let keys () = List.map (fun e -> e.key) !table

  let entries () = !table

  let make ?(params = []) e resources =
    match merge_params ~key:e.key ~defaults:e.default_params ~params with
    | Error _ as err -> err
    | Ok merged -> e.build ~resources ~params:merged
end

let of_key ?(params = []) ~resources k =
  match Registry.find k with
  | Some e -> Registry.make ~params e resources
  | None ->
    Error
      (Printf.sprintf "unknown model %S (registered: %s)" k
         (String.concat ", " (Registry.keys ())))

let of_string ~resources s =
  match String.index_opt s '{' with
  | None -> of_key ~resources s
  | Some i -> (
    let k = String.sub s 0 i in
    let body = String.sub s i (String.length s - i) in
    match Json.parse body with
    | exception Json.Parse_error msg ->
      Error (Printf.sprintf "model %s: bad parameter JSON: %s" k msg)
    | Json.Obj fields -> of_key ~params:fields ~resources k
    | _ -> Error (Printf.sprintf "model %s: parameters must be a JSON object" k))

(* ---------- built-in registrations ---------- *)

let need_arrivals ~key resources k =
  match resources.endpoint_arrivals with
  | Some arr -> k arr
  | None -> Error (Printf.sprintf "model %s requires STA endpoint arrivals" key)

let need_db ~key resources k =
  match resources.db with
  | Some db -> k db
  | None -> Error (Printf.sprintf "model %s requires a DTA characterization database" key)

let () =
  Registry.register
    {
      Registry.key = "A";
      doc = "fixed-probability random bit flips (baseline)";
      version = 1;
      features = features_a;
      cycle_dependent = false;
      wants_arrivals = false;
      wants_db = false;
      default_params = [ ("p", Json.Float 1e-6) ];
      build = (fun ~resources:_ ~params -> Ok (make_a ~bit_flip_prob:(pfloat params "p")));
    };
  Registry.register
    {
      Registry.key = "B";
      doc = "static-timing period violation (no supply noise)";
      version = 1;
      features = features_b;
      cycle_dependent = false;
      wants_arrivals = true;
      wants_db = false;
      default_params = [];
      build =
        (fun ~resources:r ~params:_ ->
          need_arrivals ~key:"B" r (fun arr ->
              Ok
                (make_static_timing ~key:"B" ~features:features_b
                   ~endpoint_arrivals:arr ~setup_ps:r.setup_ps ~vdd:r.vdd
                   ~noise:Noise.none ~vdd_model:r.vdd_model)));
    };
  Registry.register
    {
      Registry.key = "B+";
      doc = "static timing with per-cycle supply-noise modulation";
      version = 1;
      features = features_bplus;
      cycle_dependent = false;
      wants_arrivals = true;
      wants_db = false;
      default_params = [];
      build =
        (fun ~resources:r ~params:_ ->
          need_arrivals ~key:"B+" r (fun arr ->
              Ok
                (make_static_timing ~key:"B+" ~features:features_bplus
                   ~endpoint_arrivals:arr ~setup_ps:r.setup_ps ~vdd:r.vdd
                   ~noise:r.noise ~vdd_model:r.vdd_model)));
    };
  Registry.register
    {
      Registry.key = "C";
      doc = "instruction-aware statistical injection (independent endpoints)";
      version = 1;
      features = features_c;
      cycle_dependent = false;
      wants_arrivals = false;
      wants_db = true;
      default_params = [];
      build =
        (fun ~resources:r ~params:_ ->
          need_db ~key:"C" r (fun db ->
              Ok
                (make_statistical ~key:"C" ~db ~vdd:r.vdd ~noise:r.noise
                   ~vdd_model:r.vdd_model ~sampling:Independent)));
    };
  Registry.register
    {
      Registry.key = "C-corr";
      doc = "statistical injection with vector-correlated endpoint sampling";
      version = 1;
      features = features_c;
      cycle_dependent = false;
      wants_arrivals = false;
      wants_db = true;
      default_params = [];
      build =
        (fun ~resources:r ~params:_ ->
          need_db ~key:"C-corr" r (fun db ->
              Ok
                (make_statistical ~key:"C-corr" ~db ~vdd:r.vdd ~noise:r.noise
                   ~vdd_model:r.vdd_model ~sampling:Vector_correlated)));
    };
  Registry.register
    {
      Registry.key = "glitch";
      doc = "voltage glitch in attacker-chosen cycle windows (attack)";
      version = 1;
      features = features_glitch;
      cycle_dependent = true;
      wants_arrivals = true;
      wants_db = false;
      default_params =
        [
          ("start", Json.Int 0);      (* first attacked cycle *)
          ("len", Json.Int 16);       (* window length, cycles *)
          ("every", Json.Int 0);      (* repeat interval; 0 = one-shot *)
          ("drop_mv", Json.Float 120.); (* supply droop inside the window *)
        ];
      build =
        (fun ~resources:r ~params ->
          need_arrivals ~key:"glitch" r (fun arr ->
              let start = pint params "start"
              and len = pint params "len"
              and every = pint params "every"
              and drop_mv = pfloat params "drop_mv" in
              if start < 0 || len < 0 || every < 0 || drop_mv < 0. then
                Error "model glitch: start/len/every/drop_mv must be non-negative"
              else
                make_glitch ~params ~endpoint_arrivals:arr ~setup_ps:r.setup_ps
                  ~vdd:r.vdd ~vdd_model:r.vdd_model ~start ~len ~every ~drop_mv));
    };
  Registry.register
    {
      Registry.key = "skip";
      doc = "InjectV-style instruction skip with probability p (attack)";
      version = 1;
      features = features_skip;
      cycle_dependent = true;
      wants_arrivals = false;
      wants_db = false;
      default_params = [ ("p", Json.Float 1e-4) ];
      build =
        (fun ~resources:_ ~params ->
          let p = pfloat params "p" in
          if p < 0. || p > 1. then Error "model skip: p must be in [0, 1]"
          else Ok (make_skip ~params ~p));
    };
  Registry.register
    {
      Registry.key = "opcode";
      doc = "InjectV-style opcode corruption with probability p (attack)";
      version = 1;
      features = features_opcode;
      cycle_dependent = true;
      wants_arrivals = false;
      wants_db = false;
      default_params = [ ("p", Json.Float 1e-4) ];
      build =
        (fun ~resources:_ ~params ->
          let p = pfloat params "p" in
          if p < 0. || p > 1. then Error "model opcode: p must be in [0, 1]"
          else Ok (make_opcode ~params ~p));
    };
  Registry.register
    {
      Registry.key = "state";
      doc = "random architectural-state bit flips at trial start (attack)";
      version = 1;
      features = features_state;
      cycle_dependent = true;
      wants_arrivals = false;
      wants_db = false;
      default_params =
        [
          ("flips", Json.Int 1);
          ("word_lo", Json.Int 0); (* word-address window, [lo, hi) *)
          ("word_hi", Json.Int 0); (* 0 = end of memory *)
        ];
      build =
        (fun ~resources:_ ~params ->
          let flips = pint params "flips"
          and word_lo = pint params "word_lo"
          and word_hi = pint params "word_hi" in
          if flips < 0 || word_lo < 0 || word_hi < 0 then
            Error "model state: flips/word_lo/word_hi must be non-negative"
          else Ok (make_state ~params ~flips ~word_lo ~word_hi));
    }
