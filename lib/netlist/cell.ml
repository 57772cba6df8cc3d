type kind =
  | Inv
  | Buf
  | Nand2
  | Nor2
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Mux2
  | Aoi21
  | Oai21

let all = [ Inv; Buf; Nand2; Nor2; And2; Or2; Xor2; Xnor2; Mux2; Aoi21; Oai21 ]

let code = function
  | Inv -> 0
  | Buf -> 1
  | Nand2 -> 2
  | Nor2 -> 3
  | And2 -> 4
  | Or2 -> 5
  | Xor2 -> 6
  | Xnor2 -> 7
  | Mux2 -> 8
  | Aoi21 -> 9
  | Oai21 -> 10

let code_count = 11

let arity = function
  | Inv | Buf -> 1
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 -> 2
  | Mux2 | Aoi21 | Oai21 -> 3

let name = function
  | Inv -> "INV"
  | Buf -> "BUF"
  | Nand2 -> "NAND2"
  | Nor2 -> "NOR2"
  | And2 -> "AND2"
  | Or2 -> "OR2"
  | Xor2 -> "XOR2"
  | Xnor2 -> "XNOR2"
  | Mux2 -> "MUX2"
  | Aoi21 -> "AOI21"
  | Oai21 -> "OAI21"

let eval kind ins =
  assert (Array.length ins = arity kind);
  match kind with
  | Inv -> not ins.(0)
  | Buf -> ins.(0)
  | Nand2 -> not (ins.(0) && ins.(1))
  | Nor2 -> not (ins.(0) || ins.(1))
  | And2 -> ins.(0) && ins.(1)
  | Or2 -> ins.(0) || ins.(1)
  | Xor2 -> ins.(0) <> ins.(1)
  | Xnor2 -> ins.(0) = ins.(1)
  | Mux2 -> if ins.(0) then ins.(2) else ins.(1)
  | Aoi21 -> not ((ins.(0) && ins.(1)) || ins.(2))
  | Oai21 -> not ((ins.(0) || ins.(1)) && ins.(2))
