open Sfi_util
open Sfi_netlist
open Sfi_oracle
module B = Circuit.Builder

(* ---------- Cell ---------- *)

let test_cell_arity_matches_eval () =
  List.iter
    (fun kind ->
      let n = Cell.arity kind in
      (* Evaluate over the whole truth table to make sure no assertion
         trips and the function is total. *)
      for v = 0 to (1 lsl n) - 1 do
        ignore (Cell.eval kind (Array.init n (fun i -> (v lsr i) land 1 = 1)))
      done)
    Cell.all

let test_cell_truth_tables () =
  let t = true and f = false in
  Alcotest.(check bool) "inv" true (Cell.eval Cell.Inv [| f |]);
  Alcotest.(check bool) "nand" true (Cell.eval Cell.Nand2 [| t; f |]);
  Alcotest.(check bool) "nand11" false (Cell.eval Cell.Nand2 [| t; t |]);
  Alcotest.(check bool) "xor" true (Cell.eval Cell.Xor2 [| t; f |]);
  Alcotest.(check bool) "xnor" true (Cell.eval Cell.Xnor2 [| t; t |]);
  Alcotest.(check bool) "mux sel0" true (Cell.eval Cell.Mux2 [| f; t; f |]);
  Alcotest.(check bool) "mux sel1" false (Cell.eval Cell.Mux2 [| t; t; f |]);
  Alcotest.(check bool) "aoi21" false (Cell.eval Cell.Aoi21 [| t; t; f |]);
  Alcotest.(check bool) "aoi21 c" false (Cell.eval Cell.Aoi21 [| f; f; t |]);
  Alcotest.(check bool) "aoi21 none" true (Cell.eval Cell.Aoi21 [| f; t; f |]);
  Alcotest.(check bool) "oai21" true (Cell.eval Cell.Oai21 [| t; f; f |]);
  Alcotest.(check bool) "oai21 both" false (Cell.eval Cell.Oai21 [| t; f; t |])

(* ---------- Cell_lib ---------- *)

let test_gate_delay_monotone_in_fanout () =
  let d1 = Cell_lib.gate_delay Cell_lib.default Cell.Nand2 ~fanout:1 in
  let d4 = Cell_lib.gate_delay Cell_lib.default Cell.Nand2 ~fanout:4 in
  Alcotest.(check bool) "monotone" true (d4 > d1)

(* ---------- Circuit builder ---------- *)

let test_builder_simple_and () =
  let b = B.create () in
  let x = B.input b "x" and y = B.input b "y" in
  let z = B.gate b Cell.And2 [| x; y |] in
  B.output b "z" z;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  Alcotest.(check int) "one gate" 1 (Circuit.gate_count c);
  let outs = Logic_sim.eval_fn c [ ("x", true); ("y", true) ] in
  Alcotest.(check bool) "and true" true (List.assoc "z" outs);
  let outs = Logic_sim.eval_fn c [ ("x", true); ("y", false) ] in
  Alcotest.(check bool) "and false" false (List.assoc "z" outs)

let test_builder_rejects_unknown_net () =
  let b = B.create () in
  let x = B.input b "x" in
  Alcotest.(check bool) "bad net raises" true
    (try
       ignore (B.gate b Cell.And2 [| x; 999 |]);
       false
     with Invalid_argument _ -> true)

let test_builder_rejects_arity () =
  let b = B.create () in
  let x = B.input b "x" in
  Alcotest.(check bool) "arity raises" true
    (try
       ignore (B.gate b Cell.And2 [| x |]);
       false
     with Invalid_argument _ -> true)

let test_freeze_rejects_undriven () =
  (* An output net that exists but nothing drives cannot happen through the
     builder API (every net is an input, const, or gate output), so instead
     check that declaring outputs on valid nets works and unknown nets are
     rejected at declaration time. *)
  let b = B.create () in
  let _ = B.input b "x" in
  Alcotest.(check bool) "output unknown net raises" true
    (try
       B.output b "z" 42;
       false
     with Invalid_argument _ -> true)

let test_const_nets () =
  let b = B.create () in
  let x = B.input b "x" in
  let t1 = B.const b true and t2 = B.const b true in
  Alcotest.(check int) "consts shared" t1 t2;
  let z = B.gate b Cell.And2 [| x; t1 |] in
  B.output b "z" z;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let outs = Logic_sim.eval_fn c [ ("x", true) ] in
  Alcotest.(check bool) "and with const true" true (List.assoc "z" outs)

let test_tags_and_scaling () =
  let b = B.create () in
  let x = B.input b "x" and y = B.input b "y" in
  B.set_tag b "u1";
  let g1 = B.gate b Cell.And2 [| x; y |] in
  B.set_tag b "u2";
  let g2 = B.gate b Cell.Or2 [| x; y |] in
  B.output b "g1" g1;
  B.output b "g2" g2;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let d1 = c.Circuit.base_delay.(0) and d2 = c.Circuit.base_delay.(1) in
  Circuit.scale_tag_delays c ~tag:"u1" ~factor:2.0;
  Alcotest.(check (float 1e-9)) "u1 scaled" (2. *. d1) c.Circuit.base_delay.(0);
  Alcotest.(check (float 1e-9)) "u2 untouched" d2 c.Circuit.base_delay.(1);
  Circuit.scale_tag_delays c ~tag:"nonexistent" ~factor:3.0;
  Alcotest.(check (float 1e-9)) "unknown tag noop" (2. *. d1) c.Circuit.base_delay.(0);
  let counts = Circuit.count_by_tag c in
  Alcotest.(check int) "u1 count" 1 (List.assoc "u1" counts);
  Alcotest.(check int) "u2 count" 1 (List.assoc "u2" counts)

let test_topological_invariant () =
  (* Builder only lets gates read existing nets, so creation order is
     topological: every gate's inputs must be driven by earlier gates, PIs
     or constants. *)
  let alu = Alu.build () in
  let c = alu.Alu.circuit in
  let seen = Array.make c.Circuit.n_nets false in
  Array.iter (fun (_, n) -> seen.(n) <- true) c.Circuit.pis;
  (match c.Circuit.const_false with Some n -> seen.(n) <- true | None -> ());
  (match c.Circuit.const_true with Some n -> seen.(n) <- true | None -> ());
  Array.iter
    (fun (g : Circuit.gate) ->
      Array.iter
        (fun n -> if not seen.(n) then Alcotest.failf "net %d read before driven" n)
        g.Circuit.fan_in;
      seen.(g.Circuit.out) <- true)
    c.Circuit.gates

(* ---------- Datapath blocks ---------- *)

let build_binop ?(width = 16) f =
  (* Builds a circuit computing [f] over two w-bit inputs, returns an
     evaluation function over ints. *)
  let b = B.create () in
  let xs = B.input_vec b "x" width in
  let ys = B.input_vec b "y" width in
  let outs = f b xs ys in
  Array.iteri (fun i n -> B.output b (Printf.sprintf "o.%d" i) n) outs;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let sim = Logic_sim.create c in
  fun x y ->
    Logic_sim.set_input_vec sim xs x;
    Logic_sim.set_input_vec sim ys y;
    Logic_sim.eval sim;
    Logic_sim.read_vec sim outs

let mask16 = 0xFFFF

let test_ripple_adder () =
  let eval =
    build_binop (fun b xs ys ->
        let sums, _ = Datapath.ripple_adder b xs ys ~cin:(B.const b false) in
        sums)
  in
  List.iter
    (fun (x, y) ->
      Alcotest.(check int)
        (Printf.sprintf "%d+%d" x y)
        ((x + y) land mask16)
        (eval x y))
    [ (0, 0); (1, 1); (0xFFFF, 1); (0x8000, 0x8000); (12345, 54321); (0xAAAA, 0x5555) ]

let test_carry_select_adder () =
  let eval =
    build_binop (fun b xs ys ->
        let sums, _ = Datapath.carry_select_adder b ~block:4 xs ys ~cin:(B.const b false) in
        sums)
  in
  List.iter
    (fun (x, y) ->
      Alcotest.(check int)
        (Printf.sprintf "%d+%d" x y)
        ((x + y) land mask16)
        (eval x y))
    [ (0, 0); (1, 0xFFFF); (0xFFFF, 0xFFFF); (0x0F0F, 0xF0F0); (12345, 54321) ]

(* The ripple and carry-select generators, and the ALU's adder/subtractor
   in add mode. *)
let prop_adders_agree =
  QCheck.Test.make ~name:"all three adders compute x+y" ~count:300
    QCheck.(pair (int_bound mask16) (int_bound mask16))
    (let ripple =
       build_binop (fun b xs ys ->
           fst (Datapath.ripple_adder b xs ys ~cin:(B.const b false)))
     and csel =
       build_binop (fun b xs ys ->
           fst (Datapath.carry_select_adder b ~block:4 xs ys ~cin:(B.const b false)))
     and add_sub =
       build_binop (fun b xs ys -> Datapath.add_sub b xs ys ~sub:(B.const b false))
     in
     fun (x, y) ->
       let expect = (x + y) land mask16 in
       ripple x y = expect && csel x y = expect && add_sub x y = expect)

let test_add_sub () =
  let b = B.create () in
  let xs = B.input_vec b "x" 16 in
  let ys = B.input_vec b "y" 16 in
  let sub = B.input b "sub" in
  let outs = Datapath.add_sub b xs ys ~sub in
  Array.iteri (fun i n -> B.output b (Printf.sprintf "o.%d" i) n) outs;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let sim = Logic_sim.create c in
  let eval x y s =
    Logic_sim.set_input_vec sim xs x;
    Logic_sim.set_input_vec sim ys y;
    Logic_sim.set_input sim sub s;
    Logic_sim.eval sim;
    Logic_sim.read_vec sim outs
  in
  Alcotest.(check int) "add" 5 (eval 2 3 false);
  Alcotest.(check int) "sub" 1 (eval 3 2 true);
  Alcotest.(check int) "sub wrap" 0xFFFF (eval 2 3 true);
  Alcotest.(check int) "sub zero" 0 (eval 7 7 true)

let test_array_multiplier () =
  let eval = build_binop ~width:16 Datapath.array_multiplier in
  List.iter
    (fun (x, y) ->
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" x y)
        (x * y land mask16)
        (eval x y))
    [ (0, 0); (1, 1); (255, 255); (0xFFFF, 0xFFFF); (3, 5); (1234, 567) ]

let test_barrel_shifters () =
  let mk dir =
    let b = B.create () in
    let xs = B.input_vec b "x" 16 in
    let amt = B.input_vec b "amt" 4 in
    let outs = Datapath.barrel_shifter b dir xs ~amount:amt in
    Array.iteri (fun i n -> B.output b (Printf.sprintf "o.%d" i) n) outs;
    let c = Circuit.freeze b ~lib:Cell_lib.default in
    let sim = Logic_sim.create c in
    fun x a ->
      Logic_sim.set_input_vec sim xs x;
      Logic_sim.set_input_vec sim amt a;
      Logic_sim.eval sim;
      Logic_sim.read_vec sim outs
  in
  let sll = mk `Left and srl = mk `Right_logical and sra = mk `Right_arith in
  for a = 0 to 15 do
    Alcotest.(check int) "sll" (0xABCD lsl a land mask16) (sll 0xABCD a);
    Alcotest.(check int) "srl" (0xABCD lsr a) (srl 0xABCD a);
    let signed = 0xABCD - 0x10000 in
    Alcotest.(check int) "sra" (signed asr a land mask16) (sra 0xABCD a);
    Alcotest.(check int) "sra pos" (0x2BCD asr a) (sra 0x2BCD a)
  done

let test_bitwise () =
  let eval_and = build_binop (fun b xs ys -> Datapath.bitwise b Cell.And2 xs ys) in
  let eval_xor = build_binop (fun b xs ys -> Datapath.bitwise b Cell.Xor2 xs ys) in
  Alcotest.(check int) "and" (0xF0F0 land 0xFF00) (eval_and 0xF0F0 0xFF00);
  Alcotest.(check int) "xor" (0xF0F0 lxor 0xFF00) (eval_xor 0xF0F0 0xFF00)

let test_trees () =
  let b = B.create () in
  let xs = B.input_vec b "x" 5 in
  let a = Datapath.and_tree b xs in
  let o = Datapath.or_tree b xs in
  B.output b "and" a;
  B.output b "or" o;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let sim = Logic_sim.create c in
  let eval v =
    Logic_sim.set_input_vec sim xs v;
    Logic_sim.eval sim;
    (Logic_sim.value sim a, Logic_sim.value sim o)
  in
  Alcotest.(check (pair bool bool)) "all ones" (true, true) (eval 0b11111);
  Alcotest.(check (pair bool bool)) "zero" (false, false) (eval 0);
  Alcotest.(check (pair bool bool)) "mixed" (false, true) (eval 0b00100)

let test_equal_const () =
  let b = B.create () in
  let xs = B.input_vec b "x" 8 in
  let eq = Datapath.equal_const b xs 0xA5 in
  B.output b "eq" eq;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let sim = Logic_sim.create c in
  let eval v =
    Logic_sim.set_input_vec sim xs v;
    Logic_sim.eval sim;
    Logic_sim.value sim eq
  in
  Alcotest.(check bool) "match" true (eval 0xA5);
  Alcotest.(check bool) "mismatch" false (eval 0xA4);
  Alcotest.(check bool) "mismatch2" false (eval 0x25)

let test_isolation_quiets_inputs () =
  let b = B.create () in
  let xs = B.input_vec b "x" 8 in
  let en = B.input b "en" in
  let gated = Datapath.isolate b ~enable:en xs in
  Array.iteri (fun i n -> B.output b (Printf.sprintf "g.%d" i) n) gated;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let sim = Logic_sim.create c in
  Logic_sim.set_input_vec sim xs 0xFF;
  Logic_sim.set_input sim en false;
  Logic_sim.eval sim;
  Alcotest.(check int) "disabled -> zero" 0 (Logic_sim.read_vec sim gated);
  Logic_sim.set_input sim en true;
  Logic_sim.eval sim;
  Alcotest.(check int) "enabled -> pass" 0xFF (Logic_sim.read_vec sim gated)

(* ---------- ALU ---------- *)

let alu = lazy (Alu.build ())

let test_alu_matches_spec_exhaustive_small () =
  let alu = Lazy.force alu in
  let sim = Logic_sim.create alu.Alu.circuit in
  List.iter
    (fun cls ->
      List.iter
        (fun (a, b) ->
          let got = Logic_sim.simulate_alu alu sim cls a b in
          let expect = Op_class.apply cls a b in
          if got <> expect then
            Alcotest.failf "%s %08x %08x: got %08x expected %08x" (Op_class.name cls)
              a b got expect)
        [
          (0, 0); (1, 1); (0xFFFF_FFFF, 1); (0xFFFF_FFFF, 0xFFFF_FFFF);
          (0x8000_0000, 0x8000_0000); (0xDEAD_BEEF, 0x1234_5678);
          (0x0000_FFFF, 0xFFFF_0000); (5, 31); (0xFFFF_FFFF, 33);
        ])
    Op_class.all

let test_alu_gate_count_sanity () =
  let alu = Lazy.force alu in
  let n = Circuit.gate_count alu.Alu.circuit in
  Alcotest.(check bool) (Printf.sprintf "gate count %d in plausible range" n) true
    (n > 3000 && n < 30000)

let test_alu_unit_tags_present () =
  let alu = Lazy.force alu in
  let tags = List.map fst (Circuit.count_by_tag alu.Alu.circuit) in
  List.iter
    (fun t ->
      if not (List.mem t tags) then Alcotest.failf "missing tag %s" t)
    [ "iso"; "addsub"; "mul"; "sll"; "srl"; "sra"; "and"; "or"; "xor"; "select" ]

let test_alu_depth_ordering () =
  (* The multiplier must dominate the logic depth of the whole ALU. *)
  let alu = Lazy.force alu in
  let depth = Circuit.logic_depth alu.Alu.circuit in
  Alcotest.(check bool) (Printf.sprintf "depth %d > 40" depth) true (depth > 40)

(* ---------- Verilog export ---------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_verilog_small_circuit () =
  let b = B.create () in
  let x = B.input b "x" and y = B.input b "y" in
  let z = B.gate b Cell.Nand2 [| x; y |] in
  B.output b "z" z;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let v = Verilog.to_string ~module_name:"tiny" c in
  List.iter
    (fun frag ->
      if not (contains v frag) then Alcotest.failf "missing %S in:\n%s" frag v)
    [ "module tiny"; "input x"; "input y"; "output z"; "NAND2"; "endmodule" ]

let test_verilog_constants_and_sanitize () =
  let b = B.create () in
  let xs = B.input_vec b "a" 2 in
  let t = B.const b true in
  let z = B.gate b Cell.And2 [| xs.(0); t |] in
  B.output b "out.0" z;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let v = Verilog.to_string c in
  Alcotest.(check bool) "const true" true (contains v "1'b1");
  Alcotest.(check bool) "sanitized port" true (contains v "output out_0");
  Alcotest.(check bool) "sanitized input" true (contains v "input a_0")

let test_verilog_alu_exports () =
  let alu = Lazy.force alu in
  let v = Verilog.to_string alu.Alu.circuit in
  (* One instance line per gate plus ports/wires. *)
  let lines = String.split_on_char '\n' v in
  let instances =
    List.length (List.filter (fun l -> contains l "); //") lines)
  in
  Alcotest.(check int) "instance per gate" (Circuit.gate_count alu.Alu.circuit) instances;
  Alcotest.(check bool) "cell defs standalone" true
    (contains Verilog.cell_definitions "module MUX2")

let prop_alu_random_equivalence =
  QCheck.Test.make ~name:"alu netlist equals Op_class.apply" ~count:300
    QCheck.(triple (int_bound (Op_class.count - 1)) (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (ci, a, b) ->
      let alu = Lazy.force alu in
      let sim = Logic_sim.create alu.Alu.circuit in
      let cls = List.nth Op_class.all ci in
      (* Spread the 30-bit generator values over the full 32-bit range. *)
      let a = U32.of_int (a * 5) and b = U32.of_int (b * 3) in
      Logic_sim.simulate_alu alu sim cls a b = Op_class.apply cls a b)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_adders_agree; prop_alu_random_equivalence ]
  in
  Alcotest.run "sfi_netlist"
    [
      ( "cell",
        [
          Alcotest.test_case "arity/eval total" `Quick test_cell_arity_matches_eval;
          Alcotest.test_case "truth tables" `Quick test_cell_truth_tables;
        ] );
      ( "cell_lib",
        [
          Alcotest.test_case "delay monotone in fanout" `Quick test_gate_delay_monotone_in_fanout;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "simple and" `Quick test_builder_simple_and;
          Alcotest.test_case "rejects unknown net" `Quick test_builder_rejects_unknown_net;
          Alcotest.test_case "rejects arity" `Quick test_builder_rejects_arity;
          Alcotest.test_case "rejects undriven output" `Quick test_freeze_rejects_undriven;
          Alcotest.test_case "const nets" `Quick test_const_nets;
          Alcotest.test_case "tags and scaling" `Quick test_tags_and_scaling;
          Alcotest.test_case "topological invariant" `Quick test_topological_invariant;
        ] );
      ( "datapath",
        [
          Alcotest.test_case "ripple adder" `Quick test_ripple_adder;
          Alcotest.test_case "carry-select adder" `Quick test_carry_select_adder;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "array multiplier" `Quick test_array_multiplier;
          Alcotest.test_case "barrel shifters" `Quick test_barrel_shifters;
          Alcotest.test_case "bitwise" `Quick test_bitwise;
          Alcotest.test_case "reduction trees" `Quick test_trees;
          Alcotest.test_case "equal const" `Quick test_equal_const;
          Alcotest.test_case "operand isolation" `Quick test_isolation_quiets_inputs;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "small circuit" `Quick test_verilog_small_circuit;
          Alcotest.test_case "constants and names" `Quick test_verilog_constants_and_sanitize;
          Alcotest.test_case "full ALU export" `Quick test_verilog_alu_exports;
        ] );
      ( "alu",
        [
          Alcotest.test_case "matches spec (corner vectors)" `Quick
            test_alu_matches_spec_exhaustive_small;
          Alcotest.test_case "gate count sane" `Quick test_alu_gate_count_sanity;
          Alcotest.test_case "unit tags present" `Quick test_alu_unit_tags_present;
          Alcotest.test_case "depth dominated by multiplier" `Quick test_alu_depth_ordering;
        ] );
      ("properties", qsuite);
    ]
