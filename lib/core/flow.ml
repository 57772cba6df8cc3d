open Sfi_netlist
open Sfi_timing

type config = {
  clock_mhz : float;
  char_cycles : int;
  char_seed : int;
  process_sigma : float;
  die_seed : int;
  corner_factor : float;
  lib : Cell_lib.t;
  vdd_model : Vdd_model.t;
  targets : Sizing.unit_target list;
}

let default_config =
  {
    clock_mhz = 707.;
    char_cycles = 8000;
    char_seed = 0xD7A;
    process_sigma = 0.03;
    die_seed = 1;
    corner_factor = 1.0;
    lib = Cell_lib.default;
    vdd_model = Vdd_model.default;
    targets = Sizing.default_targets;
  }

type t = {
  config : config;
  alu : Alu.t;
  sta : Sta.report;
  dbs : (float * string, Characterize.t) Hashtbl.t;
  (* [dbs] is a memo table reachable from campaign code running on any
     domain; [dbs_lock] makes lookups compute-once and race-free. *)
  dbs_lock : Mutex.t;
}

let create ?(config = default_config) () =
  let alu = Alu.build ~lib:config.lib () in
  (* Variation first, sizing second: the sizing pass normalizes each unit's
     worst path against the clock on the varied die, so the STA limit lands
     exactly on the constraint; the corner factor then shifts the whole die. *)
  Sizing.apply_process_variation ~sigma:config.process_sigma ~seed:config.die_seed
    alu.Alu.circuit;
  Sizing.size_to_clock ~targets:config.targets ~clock_mhz:config.clock_mhz alu.Alu.circuit;
  if config.corner_factor <> 1.0 then
    Circuit.scale_gate_delays alu.Alu.circuit (fun _ -> config.corner_factor);
  let sta = Sta.analyze ~lib:config.lib ~vdd_model:config.vdd_model alu.Alu.circuit in
  { config; alu; sta; dbs = Hashtbl.create 8; dbs_lock = Mutex.create () }

let config t = t.config

let alu t = t.alu

let sta_at t ~vdd =
  if vdd = Vdd_model.nominal_voltage then t.sta
  else Sta.analyze ~vdd ~lib:t.config.lib ~vdd_model:t.config.vdd_model t.alu.Alu.circuit

let sta_limit_mhz t ~vdd = Sta.max_frequency_mhz (sta_at t ~vdd)

let char_db ?(profile = Characterize.uniform32) t ~vdd =
  let key = (vdd, profile.Characterize.profile_name) in
  (* Compute-once under the lock: a second domain asking for the same
     database blocks until the first has characterized and cached it.
     Characterize.run may itself fan out on the pool; its submitter helps
     drain the queue, so holding the lock here cannot deadlock. *)
  Mutex.protect t.dbs_lock (fun () ->
      match Hashtbl.find_opt t.dbs key with
      | Some db -> db
      | None ->
        let db =
          Characterize.run ~cycles:t.config.char_cycles ~seed:t.config.char_seed
            ~vdd_model:t.config.vdd_model ~lib:t.config.lib
            ~profile_for:(fun _ -> profile)
            ~vdd t.alu
        in
        Hashtbl.replace t.dbs key db;
        db)

let resources ?profile ?operating_vdd t ~vdd ~sigma =
  {
    Sfi_fi.Model.vdd = Option.value operating_vdd ~default:vdd;
    noise = Noise.create ~sigma ();
    vdd_model = t.config.vdd_model;
    setup_ps = Sta.default_setup_ps;
    endpoint_arrivals = (fun () -> Array.map snd (sta_at t ~vdd).Sta.endpoints);
    db = (fun () -> char_db ?profile t ~vdd);
  }

let model_by_key ?params ?profile t ~key ~vdd ~sigma =
  Sfi_fi.Model.of_key ?params ~resources:(resources ?profile t ~vdd ~sigma) key

(* The built-in keys exist and get every input they need, so a build
   error here is a programming error: unwrap loudly. *)
let ok_model = function Ok m -> m | Error e -> invalid_arg ("Flow: " ^ e)

let model_a ~bit_flip_prob =
  ok_model
    (Sfi_fi.Model.of_key "A"
       ~params:[ ("p", Sfi_obs.Json.Float bit_flip_prob) ]
       ~resources:Sfi_fi.Model.default_resources)

let model_b t ~vdd = ok_model (model_by_key t ~key:"B" ~vdd ~sigma:0.)

(* sigma = 0 degenerates to model B: the key (and so the obs labels and
   printable form) the variant-era [Model.name] produced; the
   fingerprint bytes are identical either way. *)
let model_bplus t ~vdd ~sigma =
  ok_model (model_by_key t ~key:(if sigma = 0. then "B" else "B+") ~vdd ~sigma)

let model_c ?(sampling = Sfi_fi.Model.Independent) ?profile ?operating_vdd t ~vdd ~sigma
    () =
  let key =
    match sampling with Sfi_fi.Model.Independent -> "C" | Vector_correlated -> "C-corr"
  in
  ok_model
    (Sfi_fi.Model.of_key key ~resources:(resources ?profile ?operating_vdd t ~vdd ~sigma))

let summary t =
  let buf = Buffer.create 512 in
  let circuit = t.alu.Alu.circuit in
  Buffer.add_string buf "statistical fault injection flow (cf. paper Fig. 3)\n";
  Buffer.add_string buf
    (Printf.sprintf "  gate-level netlist : %d gates, depth %d, area %.0f units\n"
       (Circuit.gate_count circuit) (Circuit.logic_depth circuit)
       (Circuit.total_area circuit ~lib:t.config.lib));
  List.iter
    (fun (kind, count) ->
      Buffer.add_string buf
        (Printf.sprintf "      %-6s x %d\n" (Sfi_netlist.Cell.name kind) count))
    (Circuit.count_by_kind circuit);
  Buffer.add_string buf "  virtual synthesis  : worst path per unit (ps @ 0.7 V)\n";
  List.iter
    (fun (tag, worst) ->
      Buffer.add_string buf (Printf.sprintf "      %-8s %7.1f\n" tag worst))
    (Sizing.report circuit);
  Buffer.add_string buf
    (Printf.sprintf "  STA                : worst %.1f ps -> limit %.1f MHz @ 0.7 V\n"
       t.sta.Sta.worst
       (Sta.max_frequency_mhz t.sta));
  Mutex.protect t.dbs_lock (fun () ->
      Buffer.add_string buf
        (Printf.sprintf "  DTA characterization cache: %d database(s), %d cycles each\n"
           (Hashtbl.length t.dbs) t.config.char_cycles);
      Hashtbl.iter
        (fun (vdd, profile) (db : Characterize.t) ->
          Buffer.add_string buf
            (Printf.sprintf "      vdd=%.2f V profile=%s max settle %.1f ps\n" vdd profile
               db.Characterize.max_settle))
        t.dbs);
  Buffer.contents buf
