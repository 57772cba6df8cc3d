open Sfi_util
module B = Circuit.Builder

let width = 32

type t = {
  circuit : Circuit.t;
  a : Circuit.net array;
  b : Circuit.net array;
  selects : (Op_class.t * Circuit.net) array;
  result : Circuit.net array;
  aux_low : Circuit.net array;
}

let build ?(lib = Cell_lib.default) () =
  let b = B.create () in
  let a_in = B.input_vec b "a" width in
  let b_in = B.input_vec b "b" width in
  let selects =
    List.map (fun c -> (c, B.input b ("sel_" ^ Op_class.name c))) Op_class.all
  in
  let sel c = List.assoc c selects in
  (* Operand bypass network: two forwarding stages (from MEM and WB) in
     front of the ALU, plus a driver buffer. The forwarding buses are
     primary inputs so the netlist is self-contained; they are held low
     during characterization. *)
  B.set_tag b "bypass";
  let fwd_mem = B.input_vec b "fwd_mem" width in
  let fwd_wb = B.input_vec b "fwd_wb" width in
  let bp_mem = B.input b "bp_mem" in
  let bp_wb = B.input b "bp_wb" in
  let bypass xs =
    Array.mapi
      (fun i x ->
        let s1 = B.gate b Cell.Mux2 [| bp_mem; x; fwd_mem.(i) |] in
        let s2 = B.gate b Cell.Mux2 [| bp_wb; s1; fwd_wb.(i) |] in
        B.gate b Cell.Buf [| s2 |])
      xs
  in
  let a_byp = bypass a_in and b_byp = bypass b_in in
  (* Unit enables; add and sub share the adder/subtractor. *)
  B.set_tag b "iso";
  let en_addsub = B.gate b Cell.Or2 [| sel Op_class.Add; sel Op_class.Sub |] in
  let iso enable = (Datapath.isolate b ~enable a_byp, Datapath.isolate b ~enable b_byp) in
  let addsub_a, addsub_b = iso en_addsub in
  let mul_a, mul_b = iso (sel Op_class.Mul) in
  let sll_a, sll_b = iso (sel Op_class.Sll) in
  let srl_a, srl_b = iso (sel Op_class.Srl) in
  let sra_a, sra_b = iso (sel Op_class.Sra) in
  let and_a, and_b = iso (sel Op_class.And_) in
  let or_a, or_b = iso (sel Op_class.Or_) in
  let xor_a, xor_b = iso (sel Op_class.Xor_) in
  B.set_tag b "addsub";
  let addsub_out = Datapath.add_sub b addsub_a addsub_b ~sub:(sel Op_class.Sub) in
  B.set_tag b "mul";
  let mul_out = Datapath.array_multiplier b mul_a mul_b in
  let amount bs = Array.sub bs 0 5 in
  B.set_tag b "sll";
  let sll_out = Datapath.barrel_shifter b `Left sll_a ~amount:(amount sll_b) in
  B.set_tag b "srl";
  let srl_out = Datapath.barrel_shifter b `Right_logical srl_a ~amount:(amount srl_b) in
  B.set_tag b "sra";
  let sra_out = Datapath.barrel_shifter b `Right_arith sra_a ~amount:(amount sra_b) in
  B.set_tag b "and";
  let and_out = Datapath.bitwise b Cell.And2 and_a and_b in
  B.set_tag b "or";
  let or_out = Datapath.bitwise b Cell.Or2 or_a or_b in
  B.set_tag b "xor";
  let xor_out = Datapath.bitwise b Cell.Xor2 xor_a xor_b in
  B.set_tag b "select";
  let result =
    Datapath.one_hot_mux b
      [
        (en_addsub, addsub_out);
        (sel Op_class.Mul, mul_out);
        (sel Op_class.Sll, sll_out);
        (sel Op_class.Srl, srl_out);
        (sel Op_class.Sra, sra_out);
        (sel Op_class.And_, and_out);
        (sel Op_class.Or_, or_out);
        (sel Op_class.Xor_, xor_out);
      ]
  in
  Array.iteri (fun i net -> B.output b (Printf.sprintf "r.%d" i) net) result;
  let circuit = Circuit.freeze b ~lib in
  let aux_low = Array.concat [ fwd_mem; fwd_wb; [| bp_mem; bp_wb |] ] in
  { circuit; a = a_in; b = b_in; selects = Array.of_list selects; result; aux_low }
