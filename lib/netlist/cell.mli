(** Primitive combinational cell kinds.

    The netlist is built from a small standard-cell-like set of primitives.
    Compound arithmetic blocks (full adders, multiplexer trees, ...) are
    expanded into these primitives by {!Datapath}, so static and dynamic
    timing analysis both operate at single-gate resolution. *)

type kind =
  | Inv
  | Buf
  | Nand2
  | Nor2
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Mux2  (** inputs [s; a; b]: output is [a] when [s] is false, else [b]. *)
  | Aoi21 (** inputs [a; b; c]: output is [not ((a && b) || c)]. *)
  | Oai21 (** inputs [a; b; c]: output is [not ((a || b) && c)]. *)

val all : kind list

val code : kind -> int
(** Dense integer code of the kind (its position in {!all}); used by the
    flat structure-of-arrays circuit representation so hot evaluation
    loops can dispatch on an int instead of chasing a variant. *)

val code_count : int
(** Number of distinct kinds ([List.length all]). *)

val arity : kind -> int
(** Number of input pins. *)

val name : kind -> string
(** Canonical upper-case cell name, e.g. ["NAND2"]. *)

val eval : kind -> bool array -> bool
(** Boolean function of the cell. The array length must equal
    [arity kind]; this is checked with an assertion. *)
