(* Model C's sampling hook as it was before the bucket-guided rank
   lookup: one [Cdf.prob_greater] binary search per live endpoint, and
   the vector-correlated row scan through [Array.iteri]. Kept verbatim
   (minus the obs counters, which do not touch the RNG) as the lockstep
   oracle for [Model]'s production hook: same masks, same RNG stream. *)

open Sfi_util
open Sfi_timing
open Sfi_fi

let slack_ps = 1e-6

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

let table_threshold tbl nv =
  let i = int_of_float ((nv -. tbl.lo) *. tbl.inv_step) in
  let i = if i < 0 then 0 else if i > noise_buckets then noise_buckets else i in
  tbl.thr.(i) -. slack_ps

(* [sampler ... ~rng cls] is the mask [Model.instantiate]'s [sample]
   returns for an ALU execution of class [cls]. *)
let sampler ~db ~vdd ~noise ~vdd_model ~(sampling : Model.sampling) ~freq_mhz ~rng =
  let ref_vdd = db.Characterize.vdd in
  let setup = db.Characterize.setup_ps in
  let denom = Vdd_model.derate vdd_model ref_vdd in
  let ws = Vdd_model.derate vdd_model (vdd -. Noise.max_excursion noise) /. denom in
  let classes = db.Characterize.classes in
  let class_caps =
    Array.map
      (fun (c : Characterize.class_db) ->
        Array.map Cdf.max_value c.Characterize.endpoint_cdfs)
      classes
  in
  let has_noise = Noise.sigma noise > 0. in
  let period = Sta.period_ps_of_mhz freq_mhz in
  let cannot = (db.Characterize.max_settle +. setup) *. ws <= period in
  let class_cannot =
    Array.map
      (fun (c : Characterize.class_db) ->
        c.Characterize.max_settle <= (period /. ws) -. setup -. slack_ps)
      classes
  in
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
  fun cls ->
    if cannot then 0
    else begin
      let ci = Op_class.index cls in
      if Array.unsafe_get class_cannot ci then begin
        if has_noise then ignore (Noise.draw noise rng : float);
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
        if skip then 0
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
              Array.iteri
                (fun e s -> if s > threshold then mask := !mask lor (1 lsl e))
                row;
              !mask
            | Independent ->
              let caps = class_caps.(ci) in
              let mask = ref 0 in
              for e = 0 to Array.length caps - 1 do
                if caps.(e) > threshold then begin
                  let p =
                    Cdf.prob_greater cdb.Characterize.endpoint_cdfs.(e) threshold
                  in
                  if Rng.bernoulli rng p then mask := !mask lor (1 lsl e)
                end
              done;
              !mask
          end
        end
      end
    end
