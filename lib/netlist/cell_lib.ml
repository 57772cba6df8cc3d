type entry = {
  kind : Cell.kind;
  area : float;
  intrinsic : float;
  load_slope : float;
  vdd_alpha_skew : float;
}

type t = entry array (* indexed in the order of Cell.all *)

let index kind =
  let rec find i = function
    | [] -> assert false
    | k :: rest -> if k = kind then i else find (i + 1) rest
  in
  find 0 Cell.all

let entry t kind = t.(index kind)

let make_entry kind area intrinsic load_slope vdd_alpha_skew =
  { kind; area; intrinsic; load_slope; vdd_alpha_skew }

let default =
  (* Intrinsic delays in ps, loosely shaped on a 28 nm standard-cell library
     at 0.7 V: an inverter is the fastest cell, XOR-class cells roughly
     2.5x slower, complex cells in between. The alpha skew encodes that
     stacked-transistor cells degrade slightly faster at low voltage. *)
  [|
    make_entry Inv 1.0 8.0 1.5 0.00;
    make_entry Buf 1.5 12.0 1.2 0.00;
    make_entry Nand2 1.2 10.0 2.0 0.01;
    make_entry Nor2 1.2 12.0 2.5 0.02;
    make_entry And2 1.5 14.0 2.0 0.01;
    make_entry Or2 1.5 14.0 2.5 0.02;
    make_entry Xor2 2.5 22.0 3.0 0.03;
    make_entry Xnor2 2.5 22.0 3.0 0.03;
    make_entry Mux2 2.2 20.0 2.5 0.02;
    make_entry Aoi21 1.8 14.0 2.5 0.02;
    make_entry Oai21 1.8 14.0 2.5 0.02;
  |]

let () =
  (* The table must line up with Cell.all. *)
  assert (Array.length default = List.length Cell.all);
  List.iteri (fun i k -> assert (default.(i).kind = k)) Cell.all

let gate_delay t kind ~fanout =
  let e = entry t kind in
  let fanout = max 1 fanout in
  e.intrinsic +. (e.load_slope *. float_of_int fanout)

let to_text t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "# sfi cell library: delays in ps at 0.7 V, typical corner\n";
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "cell %s area %g intrinsic %g load %g alpha_skew %g\n"
           (Cell.name e.kind) e.area e.intrinsic e.load_slope e.vdd_alpha_skew))
    t;
  Buffer.contents buf
