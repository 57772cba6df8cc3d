open Sfi_netlist

(* Direct-indexing gate evaluation shared by the zero-delay simulator and
   the event-driven DTA; unlike [Cell.eval] it reads net values in place
   and allocates nothing. Dispatches on the flat SoA arrays — the int
   kind code and CSR fan-in — so one event touches three flat arrays
   instead of a gate record, a kind variant, and a fan-in array. The
   branches are written out longhand (no local helper closure) to keep
   the path allocation-free without relying on flambda. *)
let eval_gate (t : Circuit.t) values gi =
  let o = Array.unsafe_get t.Circuit.fanin_off gi in
  let ins = t.Circuit.fanin_net in
  match Array.unsafe_get t.Circuit.kind_code gi with
  | 0 (* Inv *) -> not (Array.unsafe_get values (Array.unsafe_get ins o))
  | 1 (* Buf *) -> Array.unsafe_get values (Array.unsafe_get ins o)
  | 2 (* Nand2 *) ->
    not
      (Array.unsafe_get values (Array.unsafe_get ins o)
      && Array.unsafe_get values (Array.unsafe_get ins (o + 1)))
  | 3 (* Nor2 *) ->
    not
      (Array.unsafe_get values (Array.unsafe_get ins o)
      || Array.unsafe_get values (Array.unsafe_get ins (o + 1)))
  | 4 (* And2 *) ->
    Array.unsafe_get values (Array.unsafe_get ins o)
    && Array.unsafe_get values (Array.unsafe_get ins (o + 1))
  | 5 (* Or2 *) ->
    Array.unsafe_get values (Array.unsafe_get ins o)
    || Array.unsafe_get values (Array.unsafe_get ins (o + 1))
  | 6 (* Xor2 *) ->
    Array.unsafe_get values (Array.unsafe_get ins o)
    <> Array.unsafe_get values (Array.unsafe_get ins (o + 1))
  | 7 (* Xnor2 *) ->
    Array.unsafe_get values (Array.unsafe_get ins o)
    = Array.unsafe_get values (Array.unsafe_get ins (o + 1))
  | 8 (* Mux2 *) ->
    if Array.unsafe_get values (Array.unsafe_get ins o) then
      Array.unsafe_get values (Array.unsafe_get ins (o + 2))
    else Array.unsafe_get values (Array.unsafe_get ins (o + 1))
  | 9 (* Aoi21 *) ->
    not
      ((Array.unsafe_get values (Array.unsafe_get ins o)
       && Array.unsafe_get values (Array.unsafe_get ins (o + 1)))
      || Array.unsafe_get values (Array.unsafe_get ins (o + 2)))
  | _ (* Oai21 *) ->
    not
      ((Array.unsafe_get values (Array.unsafe_get ins o)
       || Array.unsafe_get values (Array.unsafe_get ins (o + 1)))
      && Array.unsafe_get values (Array.unsafe_get ins (o + 2)))

let eval_all_gates (t : Circuit.t) values =
  let out = t.Circuit.gate_out in
  for gi = 0 to Array.length out - 1 do
    Array.unsafe_set values (Array.unsafe_get out gi) (eval_gate t values gi)
  done

type t = { circuit : Circuit.t; values : bool array; is_free : bool array }

let create (c : Circuit.t) =
  let is_free = Array.make c.Circuit.n_nets false in
  Array.iter (fun (_, n) -> is_free.(n) <- true) c.Circuit.pis;
  (match c.Circuit.const_false with Some n -> is_free.(n) <- true | None -> ());
  (match c.Circuit.const_true with Some n -> is_free.(n) <- true | None -> ());
  let values = Array.make c.Circuit.n_nets false in
  (match c.Circuit.const_true with Some n -> values.(n) <- true | None -> ());
  { circuit = c; values; is_free }

let set_input t net v =
  if net < 0 || net >= Array.length t.values || not t.is_free.(net) then
    invalid_arg "Logic_sim.set_input: not a primary input";
  (* Constants stay pinned. *)
  (match t.circuit.Circuit.const_false with
  | Some n when n = net -> invalid_arg "Logic_sim.set_input: constant net"
  | _ -> ());
  (match t.circuit.Circuit.const_true with
  | Some n when n = net -> invalid_arg "Logic_sim.set_input: constant net"
  | _ -> ());
  t.values.(net) <- v

let set_input_vec t nets word =
  Array.iteri (fun i n -> set_input t n ((word lsr i) land 1 = 1)) nets

let eval t = eval_all_gates t.circuit t.values

let value t net = t.values.(net)

let read_vec t nets =
  let acc = ref 0 in
  Array.iteri (fun i n -> if t.values.(n) then acc := !acc lor (1 lsl i)) nets;
  !acc

let eval_fn c inputs =
  let t = create c in
  List.iter
    (fun (name, v) ->
      match Array.find_opt (fun (n, _) -> n = name) c.Circuit.pis with
      | Some (_, net) -> set_input t net v
      | None -> invalid_arg (Printf.sprintf "Logic_sim.eval_fn: no input %S" name))
    inputs;
  eval t;
  Array.to_list (Array.map (fun (name, net) -> (name, value t net)) c.Circuit.pos)

let drive_alu (alu : Alu.t) t cls a b =
  set_input_vec t alu.Alu.a a;
  set_input_vec t alu.Alu.b b;
  Array.iter (fun net -> set_input t net false) alu.Alu.aux_low;
  Array.iter (fun (c, net) -> set_input t net (c = cls)) alu.Alu.selects

let simulate_alu alu t cls a b =
  drive_alu alu t cls a b;
  eval t;
  read_vec t alu.Alu.result
