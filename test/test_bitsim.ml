(* Bit-parallel engine tests: the compiled levelized schedule, the word
   evaluator, lane packing, the packed event-driven DTA, and the
   seed-replica differential contract — the production (packed)
   characterization kernel must produce a class database bit-identical
   to the scalar reference kernel's, across every op class and operand
   profile. *)

open Sfi_util
open Sfi_netlist
open Sfi_timing
open Sfi_oracle
module B = Circuit.Builder

(* The production kernel must compute for real: make sure no persistent
   cache can serve it a stored database. *)
let () = Sfi_cache.set_dir None

(* ---------- compiled levelized schedule ---------- *)

let random_circuit rng ~inputs ~gates =
  let b = B.create () in
  let ins = Array.init inputs (fun i -> B.input b (Printf.sprintf "i%d" i)) in
  let nets = ref (Array.to_list ins) in
  let pick () =
    let l = !nets in
    List.nth l (Rng.int rng (List.length l))
  in
  let kinds = Array.of_list Cell.all in
  for _ = 1 to gates do
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let fan_in = Array.init (Cell.arity kind) (fun _ -> pick ()) in
    nets := B.gate b kind fan_in :: !nets
  done;
  let outs = List.filteri (fun i _ -> i < 4) !nets in
  List.iteri (fun i n -> B.output b (Printf.sprintf "o%d" i) n) outs;
  (Circuit.freeze b ~lib:Cell_lib.default, ins, Array.of_list outs)

let test_schedule_well_formed () =
  let rng = Rng.of_int 11 in
  let c, _, _ = random_circuit rng ~inputs:8 ~gates:120 in
  let n_gates = Circuit.gate_count c in
  Alcotest.(check int) "schedule covers every gate" n_gates
    (Array.length c.Circuit.sched_gate);
  let seen = Array.make n_gates false in
  Array.iter
    (fun gi ->
      Alcotest.(check bool) "gate scheduled once" false seen.(gi);
      seen.(gi) <- true)
    c.Circuit.sched_gate;
  (* Every gate strictly above its fan-in drivers, segments uniform in
     kind and nondecreasing in level. *)
  Array.iteri
    (fun gi (g : Circuit.gate) ->
      Array.iter
        (fun n ->
          let d = c.Circuit.driver.(n) in
          if d >= 0 then
            Alcotest.(check bool) "level above fan-in" true
              (c.Circuit.gate_level.(gi) > c.Circuit.gate_level.(d)))
        g.Circuit.fan_in;
      Alcotest.(check bool) "level within bounds" true
        (c.Circuit.gate_level.(gi) >= 1 && c.Circuit.gate_level.(gi) <= c.Circuit.n_levels))
    c.Circuit.gates;
  let last_level = ref 0 in
  Array.iteri
    (fun s kind ->
      let lo = c.Circuit.seg_off.(s) and hi = c.Circuit.seg_off.(s + 1) in
      Alcotest.(check bool) "segment non-empty" true (hi > lo);
      let lvl = c.Circuit.gate_level.(c.Circuit.sched_gate.(lo)) in
      Alcotest.(check bool) "segments level-ordered" true (lvl >= !last_level);
      last_level := lvl;
      for j = lo to hi - 1 do
        let gi = c.Circuit.sched_gate.(j) in
        Alcotest.(check int) "segment kind uniform" kind c.Circuit.kind_code.(gi);
        Alcotest.(check int) "segment level uniform" lvl c.Circuit.gate_level.(gi)
      done)
    c.Circuit.seg_kind;
  Alcotest.(check int) "n_levels is the max gate level" c.Circuit.n_levels
    (Array.fold_left max 0 c.Circuit.gate_level)

(* ---------- word evaluator vs scalar evaluation ---------- *)

let prop_eval_levels_matches_scalar =
  QCheck.Test.make ~name:"Bitsim.eval_levels equals per-lane scalar evaluation"
    ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Rng.of_int (seed + 31) in
      let c, ins, outs = random_circuit rng ~inputs:7 ~gates:60 in
      let words = Bitsim.make_words c in
      (* Random word per input: every lane is an independent vector. *)
      let in_words =
        Array.map
          (fun _ ->
            Int64.to_int
              (Int64.logand (Rng.int64 rng) (Int64.of_int Bitsim.full_mask)))
          ins
      in
      Array.iteri (fun i n -> words.(n) <- in_words.(i)) ins;
      Bitsim.eval_levels c words;
      let ok = ref true in
      for lane = 0 to Bitsim.lanes - 1 do
        let values = Array.make c.Circuit.n_nets false in
        (match c.Circuit.const_true with Some n -> values.(n) <- true | None -> ());
        Array.iteri
          (fun i n -> values.(n) <- (in_words.(i) lsr lane) land 1 = 1)
          ins;
        Logic_sim.eval_all_gates c values;
        Array.iter
          (fun n -> if values.(n) <> ((words.(n) lsr lane) land 1 = 1) then ok := false)
          outs
      done;
      !ok)

(* ---------- lane packing round-trip ---------- *)

let prop_pack_roundtrip =
  QCheck.Test.make ~name:"lane pack/read_lane round-trips random trial vectors"
    ~count:200
    QCheck.(pair (int_range 1 63) small_nat)
    (fun (nvals, seed) ->
      let rng = Rng.of_int (seed + 7) in
      let vals = Array.init nvals (fun _ -> Rng.bits32 rng) in
      let nets = Array.init 32 (fun i -> i) in
      let words = Array.make 32 0 in
      Bitsim.pack words nets vals;
      let ok = ref true in
      for l = 0 to nvals - 1 do
        if Bitsim.read_lane words nets ~lane:l <> vals.(l) then ok := false
      done;
      (* Lanes beyond the packed values read back as zero. *)
      for l = nvals to Bitsim.lanes - 1 do
        if Bitsim.read_lane words nets ~lane:l <> 0 then ok := false
      done;
      !ok)

let test_popcount_ctz () =
  Alcotest.(check int) "popcount full" Bitsim.lanes (Bitsim.popcount Bitsim.full_mask);
  Alcotest.(check int) "popcount zero" 0 (Bitsim.popcount 0);
  for l = 0 to Bitsim.lanes - 1 do
    Alcotest.(check int) "ctz of single bit" l (Bitsim.ctz (1 lsl l));
    Alcotest.(check int) "popcount single bit" 1 (Bitsim.popcount (1 lsl l))
  done;
  Alcotest.(check int) "ctz picks lowest bit" 3 (Bitsim.ctz (0b11010_1000))

(* ---------- packed DTA vs per-lane scalar DTA ---------- *)

(* Jitter every gate delay by a random factor: distinct delay-path sums
   then never collide in float, so the packed engine's event merging
   cannot hit the dependent same-instant ties that are the one
   documented divergence risk — matching the process variation every
   production netlist carries. *)
let jitter_delays rng c =
  Circuit.scale_gate_delays c (fun _ -> 0.8 +. (0.4 *. Rng.float rng))

let prop_packed_dta_matches_scalar =
  QCheck.Test.make ~name:"packed DTA settle times bit-equal per-lane scalar DTA"
    ~count:25 QCheck.small_nat
    (fun seed ->
      let rng = Rng.of_int (seed + 211) in
      let c, ins, outs = random_circuit rng ~inputs:6 ~gates:80 in
      jitter_delays rng c;
      let packed = Dta_packed.create ~watch:outs c in
      (* One word per input; lane l of the packed cycle must equal a
         fresh scalar DTA driven with lane l's bits. *)
      let in_words =
        Array.map
          (fun _ ->
            Int64.to_int
              (Int64.logand (Rng.int64 rng) (Int64.of_int Bitsim.full_mask)))
          ins
      in
      Array.iteri (fun i n -> Dta_packed.set_input_word packed n in_words.(i)) ins;
      Dta_packed.cycle packed;
      let ok = ref true in
      for lane = 0 to Bitsim.lanes - 1 do
        let scalar = Dta.create c in
        Array.iteri
          (fun i n -> Dta.set_input scalar n ((in_words.(i) lsr lane) land 1 = 1))
          ins;
        Dta.cycle scalar;
        Array.iter
          (fun n ->
            if Dta.value scalar n <> Dta_packed.value packed n ~lane then ok := false;
            (* Bit-identical, not approximately equal. *)
            if Dta.settle_time scalar n <> Dta_packed.settle_time packed n ~lane then
              ok := false)
          outs
      done;
      !ok)

(* ---------- seed-replica differential: packed vs scalar class_db ---------- *)

let sized_alu =
  lazy
    (let alu = Alu.build () in
     Sizing.apply_process_variation ~sigma:0.03 ~seed:1 alu.Alu.circuit;
     Sizing.size_to_clock ~clock_mhz:707. alu.Alu.circuit;
     alu)

(* Mixed operand profiles so the differential covers uniform32/16/8. *)
let profile_for cls =
  match Op_class.index cls mod 3 with
  | 0 -> Characterize.uniform32
  | 1 -> Characterize.uniform16
  | _ -> Characterize.uniform8

let db_bytes (db : Characterize.t) = Marshal.to_string db []

(* Runs [f] with observability on and returns its result with the
   value the counter [name] reached. *)
let counting name f =
  let c = Sfi_obs.Counter.make ~det:false name in
  Sfi_obs.reset ();
  Sfi_obs.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Sfi_obs.set_enabled false) f in
  (r, Sfi_obs.Counter.value c)

(* Chains are sampled before dispatch and every sweep is its own pool
   task, so the database is the reference's at every job count. The
   cycle count gives each class several sweeps and a partial last one.
   At jobs 1 the run's one DTA instance serves every class, which pins
   the re-staging of the select words before each sweep. *)
let test_packed_db_bit_identical () =
  let alu = Lazy.force sized_alu in
  let cycles = (3 * Bitsim.lanes) + 5 in
  let scalar = Ref_characterize.run ~cycles ~seed:97 ~profile_for ~vdd:0.7 alu in
  List.iter
    (fun jobs ->
      let packed =
        Characterize.run ~cycles ~seed:97 ~profile_for
          ~spec:(Spec.with_jobs jobs Spec.default) ~vdd:0.7 alu
      in
      (* Bit-identity of the full database: every per-class CDF, the raw
         cycle_arrivals matrices and the settle maxima, via the
         marshalled bytes (floats compared representation-exact). *)
      Alcotest.(check bool)
        (Printf.sprintf "class_db bit-identical across kernels at jobs %d" jobs)
        true
        (db_bytes scalar = db_bytes packed);
      (* And spot-check semantics, so a Marshal quirk could not hide a
         real difference. *)
      List.iter
        (fun cls ->
          let s = Characterize.class_db scalar cls in
          let p = Characterize.class_db packed cls in
          Alcotest.(check string) "profile" s.Characterize.profile_name
            p.Characterize.profile_name;
          Alcotest.(check bool) "max_settle" true
            (Float.equal s.Characterize.max_settle p.Characterize.max_settle);
          Alcotest.(check bool) "cycle_arrivals" true
            (s.Characterize.cycle_arrivals = p.Characterize.cycle_arrivals))
        Op_class.all)
    [ 1; 2; 4 ]

(* The packed kernel must survive a partial final sweep (cycles not a
   multiple of lanes is the common case) and a single-trial run. A full
   uniform32 sweep of the mul class appends far more transitions than
   an arena page holds, so from [Bitsim.lanes] cycles on, waveform
   regions reach page ends and move whole to the next page. *)
let test_packed_partial_batches () =
  let alu = Lazy.force sized_alu in
  List.iter
    (fun cycles ->
      let packed, moves =
        counting "bitsim.page_moves" (fun () ->
            Characterize.run ~cycles ~seed:5 ~vdd:0.7 alu)
      in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at %d cycles" cycles)
        true
        (db_bytes (Ref_characterize.run ~cycles ~seed:5 ~vdd:0.7 alu) = db_bytes packed);
      if cycles >= Bitsim.lanes then
        Alcotest.(check bool)
          (Printf.sprintf "regions moved to the next page at %d cycles" cycles)
          true (moves > 0))
    [ 1; Bitsim.lanes; Bitsim.lanes + 1 ]

(* ---------- paged waveform arena ---------- *)

(* A net with more transitions in one cycle than any arena page holds:
   an XOR tree over [leaves] inputs, each input behind one buffer whose
   delay puts its toggle [spacing] after the previous input's. The
   spacing exceeds every tree path's delay spread plus a gate delay, so
   no toggles merge and the root's waveform has one entry per toggling
   input, a region that outgrows a page. The first cycle (every input
   rises in every lane) gives the root an oversized page at the end of
   the arena. The second (the first half of the inputs falls in random
   lanes) appends about half as much before the root, so the root's
   region fills a standard page mid-arena and must displace the next
   one with an oversized page. *)
let test_region_longer_than_page () =
  let leaves = 1 lsl 14 in
  let b = B.create () in
  let ins = Array.init leaves (fun i -> B.input b (Printf.sprintf "i%d" i)) in
  let bufs = Array.map (fun n -> B.gate b Cell.Buf [| n |]) ins in
  let rec tree = function
    | [ n ] -> n
    | nets ->
      let rec pair = function
        | x :: y :: rest -> B.gate b Cell.Xor2 [| x; y |] :: pair rest
        | rest -> rest
      in
      tree (pair nets)
  in
  let root = tree (Array.to_list bufs) in
  let tail = B.gate b Cell.Buf [| root |] in
  B.output b "root" root;
  B.output b "tail" tail;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let d_max = Array.fold_left Float.max 0. c.Circuit.base_delay in
  (* Four times the delay of 16 levels: the tree's 14, the leaf buffer
     and the root's reader. *)
  let spacing = 4. *. 16. *. d_max in
  let leaf_of_gate = Hashtbl.create leaves in
  Array.iteri (fun i n -> Hashtbl.replace leaf_of_gate c.Circuit.driver.(n) i) bufs;
  Circuit.scale_gate_delays c (fun gi ->
      match Hashtbl.find_opt leaf_of_gate gi with
      | Some i -> float_of_int (i + 1) *. spacing /. c.Circuit.base_delay.(gi)
      | None -> 1.);
  let watch = [| root; tail |] in
  let packed = Dta_packed.create ~watch c in
  let rng = Rng.of_int 3 in
  let rise = Array.map (fun _ -> Bitsim.full_mask) ins in
  let fall =
    Array.mapi
      (fun i w -> if i < leaves / 2 then Int64.to_int (Rng.int64 rng) land w else w)
      rise
  in
  let scalars = List.map (fun lane -> (lane, Dta.create c)) [ 0; 31; Bitsim.lanes - 1 ] in
  let step words =
    Array.iteri (fun i n -> Dta_packed.set_input_word packed n words.(i)) ins;
    Dta_packed.cycle packed;
    List.iter
      (fun (lane, scalar) ->
        Array.iteri (fun i n -> Dta.set_input scalar n ((words.(i) lsr lane) land 1 = 1)) ins;
        Dta.cycle scalar;
        Array.iter
          (fun n ->
            let what = Printf.sprintf "lane %d net %d" lane n in
            Alcotest.(check bool) (what ^ " value") (Dta.value scalar n)
              (Dta_packed.value packed n ~lane);
            Alcotest.(check bool) (what ^ " settle bit-equal") true
              (Float.equal (Dta.settle_time scalar n) (Dta_packed.settle_time packed n ~lane)))
          watch)
      scalars
  in
  let (), moves =
    counting "bitsim.page_moves" (fun () ->
        step rise;
        (* Every input rose: the root toggles once per leaf, the last
           time after the last leaf's buffer. *)
        Alcotest.(check bool) "root settles after the last leaf" true
          (Dta_packed.settle_time packed root ~lane:0 > float_of_int leaves *. spacing);
        step fall)
  in
  Alcotest.(check bool) "regions moved to the next page" true (moves > 0)

let () =
  Alcotest.run "sfi_bitsim"
    [
      ( "schedule",
        [ Alcotest.test_case "levelized schedule well-formed" `Quick test_schedule_well_formed ] );
      ( "words",
        [
          QCheck_alcotest.to_alcotest prop_eval_levels_matches_scalar;
          QCheck_alcotest.to_alcotest prop_pack_roundtrip;
          Alcotest.test_case "popcount and ctz" `Quick test_popcount_ctz;
        ] );
      ( "packed-dta",
        [ QCheck_alcotest.to_alcotest prop_packed_dta_matches_scalar ] );
      ( "differential",
        [
          Alcotest.test_case "packed class_db bit-identical" `Quick
            test_packed_db_bit_identical;
          Alcotest.test_case "partial final sweep" `Quick test_packed_partial_batches;
        ] );
      ( "paged-arena",
        [ Alcotest.test_case "region longer than a page" `Quick test_region_longer_than_page ]
      );
    ]
