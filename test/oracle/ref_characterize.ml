open Sfi_util
open Sfi_netlist
open Sfi_timing

let characterize_class ~cycles ~rng ~vdd ~vdd_model ~lib
    ~(profile : Characterize.operand_profile) (alu : Alu.t) cls =
  let dta = Dta.create ~vdd ~vdd_model ~lib alu.Alu.circuit in
  (* Select the class once; the select settling cycle is not recorded. *)
  Array.iter (fun (c', net) -> Dta.set_input dta net (c' = cls)) alu.Alu.selects;
  Dta.cycle dta;
  let endpoints = alu.Alu.result in
  let cycle_arrivals =
    Array.init cycles (fun _ ->
        let a, b = profile.Characterize.sample rng in
        Dta.set_input_vec dta alu.Alu.a a;
        Dta.set_input_vec dta alu.Alu.b b;
        Dta.cycle dta;
        let got = Dta.read_vec dta endpoints and expect = Op_class.apply cls a b in
        if got <> expect then
          failwith
            (Printf.sprintf "Ref_characterize: %s a=%08x b=%08x: got %08x expected %08x"
               (Op_class.name cls) a b got expect);
        Array.map (Dta.settle_time dta) endpoints)
  in
  {
    Characterize.cls;
    profile_name = profile.Characterize.profile_name;
    endpoint_cdfs =
      Array.init Alu.width (fun e ->
          Cdf.of_samples (Array.map (fun row -> row.(e)) cycle_arrivals));
    cycle_arrivals;
    max_settle =
      Array.fold_left (Array.fold_left Float.max) 0. cycle_arrivals;
  }

let run ?(cycles = 8000) ?(seed = 0xD7A) ?(setup_ps = Sta.default_setup_ps)
    ?(vdd_model = Vdd_model.default) ?(lib = Cell_lib.default)
    ?(profile_for = fun _ -> Characterize.uniform32) ~vdd alu =
  let root = Rng.of_int seed in
  (* [List.map] leaves its evaluation order unspecified: split the
     per-class streams in class order explicitly. *)
  let rngs = List.rev (List.fold_left (fun acc _ -> Rng.split root :: acc) [] Op_class.all) in
  let classes =
    Array.of_list
      (List.map2
         (fun cls rng ->
           characterize_class ~cycles ~rng ~vdd ~vdd_model ~lib ~profile:(profile_for cls)
             alu cls)
         Op_class.all rngs)
  in
  let max_settle =
    Array.fold_left (fun acc (c : Characterize.class_db) -> Float.max acc c.max_settle) 0.
      classes
  in
  { Characterize.vdd; setup_ps; cycles; classes; max_settle }
