(** Zero-delay functional simulation of a frozen circuit.

    Used to validate the generated datapaths against their arithmetic
    specification, as the reference for the delay-annotated simulator
    {!Dta}, and as the per-lane reference for the word-parallel
    [Sfi_netlist.Bitsim] evaluator. *)

open Sfi_util
open Sfi_netlist

val eval_gate : Circuit.t -> bool array -> int -> bool
(** [eval_gate c values gi] is the Boolean function of gate [gi] applied
    to the current net [values], without allocating. One shared match for
    the zero-delay simulator and the event-driven DTA. *)

val eval_all_gates : Circuit.t -> bool array -> unit
(** [eval_all_gates c values] propagates [values] through every gate in
    topological order (a full zero-delay evaluation pass). *)

type t

val create : Circuit.t -> t

val set_input : t -> Circuit.net -> bool -> unit
(** Sets a primary input value. Raises [Invalid_argument] if the net is
    not a primary input or constant net. *)

val set_input_vec : t -> Circuit.net array -> int -> unit
(** [set_input_vec t nets word] drives [nets.(i)] with bit [i] of [word]. *)

val eval : t -> unit
(** Propagates all values in topological order. *)

val value : t -> Circuit.net -> bool
(** Value of a net after {!eval}. *)

val read_vec : t -> Circuit.net array -> int
(** Packs net values into an integer, index 0 = LSB. *)

val eval_fn : Circuit.t -> (string * bool) list -> (string * bool) list
(** One-shot convenience: evaluate named inputs to named outputs. Inputs
    not mentioned default to [false]. *)

val drive_alu : Alu.t -> t -> Op_class.t -> U32.t -> U32.t -> unit
(** Sets the ALU's operand and one-hot select inputs for one operation,
    holding the bypass inputs low (does not call {!eval}). *)

val simulate_alu : Alu.t -> t -> Op_class.t -> U32.t -> U32.t -> U32.t
(** Functional evaluation of one ALU operation: drives the inputs,
    evaluates, and reads back the 32-bit result. Must equal
    [Op_class.apply] for every class (the netlist-vs-specification
    equivalence checked by the test suite). *)
