type t = Add | Sub | Mul | Sll | Srl | Sra | And_ | Or_ | Xor_

let all = [ Add; Sub; Mul; Sll; Srl; Sra; And_; Or_; Xor_ ]

let name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | And_ -> "and"
  | Or_ -> "or"
  | Xor_ -> "xor"

let apply c a b =
  match c with
  | Add -> U32.add a b
  | Sub -> U32.sub a b
  | Mul -> U32.mul a b
  | Sll -> U32.shift_left a (b land 31)
  | Srl -> U32.shift_right_logical a (b land 31)
  | Sra -> U32.shift_right_arith a (b land 31)
  | And_ -> U32.logand a b
  | Or_ -> U32.logor a b
  | Xor_ -> U32.logxor a b

(* Direct match, in [all]'s order: the list-walking version allocated
   its recursive closure on every call, and this sits on the decoder's
   allocation-free path. *)
let index = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Sll -> 3
  | Srl -> 4
  | Sra -> 5
  | And_ -> 6
  | Or_ -> 7
  | Xor_ -> 8

let count = List.length all
