(** Generators for the arithmetic datapath blocks of the execution stage.

    Every generator expands into primitive gates inside a {!Circuit.Builder}
    and returns the output nets. Bit index 0 is the least-significant bit
    throughout. The generators are deliberately structural (ripple chains,
    carry-select blocks, shift-and-add arrays): the per-bit and per-operand
    path-delay spread that drives the paper's statistical fault model comes
    from these structures, while absolute speed is set afterwards by the
    virtual-synthesis sizing pass in [Sfi_timing.Sizing]. *)

type b = Circuit.Builder.t
type net = Circuit.net

val ripple_adder : b -> net array -> net array -> cin:net -> net array * net
(** Classic ripple-carry adder; operands must have equal width. *)

val carry_select_adder :
  b -> block:int -> net array -> net array -> cin:net -> net array * net
(** Carry-select adder: each block computes both carry-in hypotheses with
    short ripple chains, and a block-to-block mux chain picks the real
    one. The mux chain is excited to its full depth within a few hundred
    random vectors, so the adder's dynamic timing limit sits close to its
    static one — the behaviour the case study's synthesized adder shows
    (points of first failure only ~6% above the STA limit, Fig. 4) — while
    bit significance still orders the arrival times (one more mux per
    block). *)

val add_sub : b -> net array -> net array -> sub:net -> net array
(** Adder/subtractor: computes [a + b] when [sub] is low and [a - b]
    (two's complement) when high, on top of {!carry_select_adder} with
    4-bit blocks. *)

val array_multiplier : b -> net array -> net array -> net array
(** Shift-and-add array multiplier returning the low [n] product bits for
    [n]-bit operands — the single-cycle multiplier that limits the
    processor's clock frequency. *)

val barrel_shifter : b -> [ `Left | `Right_logical | `Right_arith ] ->
  net array -> amount:net array -> net array
(** Logarithmic barrel shifter; [amount] gives the shift-count bits
    (LSB first), one mux stage per bit. *)

val bitwise : b -> Cell.kind -> net array -> net array -> net array
(** Bit-parallel application of a 2-input cell. *)

val isolate : b -> enable:net -> net array -> net array
(** Operand isolation: AND every bit with [enable] so that de-selected
    units see constant inputs and stay quiet (standard low-power practice,
    and what keeps DTA characterization conditioned on one unit). *)

val and_tree : b -> net array -> net
val or_tree : b -> net array -> net
(** Balanced reduction trees. Raise [Invalid_argument] on empty input. *)

val one_hot_mux : b -> (net * net array) list -> net array
(** [one_hot_mux b [ (sel1, bus1); ... ]] implements the result mux as an
    AND-OR structure; exactly one select is expected to be high. All buses
    must share the same width. *)

val equal_const : b -> net array -> int -> net
(** Comparator against a constant: high when the bus equals the value. *)
