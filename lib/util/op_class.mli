(** ALU operation classes.

    This is the shared vocabulary between the gate-level ALU model, the
    instruction set, and the fault-injection models: the paper conditions
    its timing-error statistics on the {e instruction type}, and every ALU
    instruction of the OR1K subset maps to exactly one of these classes
    (the class selects the datapath unit and therefore the excited paths).
    Non-ALU instructions (loads, stores, branches, jumps, nop) have no
    class and are always timing-safe below the control-path threshold
    frequency, per the constraint strategy the paper adopts from [14]. *)

type t =
  | Add   (** carry-select adder, add mode (l.add, l.addi) *)
  | Sub   (** adder in subtract mode (l.sub and all l.sf* compares) *)
  | Mul   (** single-cycle array multiplier (l.mul, l.muli) *)
  | Sll   (** barrel shifter, left (l.sll, l.slli) *)
  | Srl   (** barrel shifter, logical right (l.srl, l.srli) *)
  | Sra   (** barrel shifter, arithmetic right (l.sra, l.srai) *)
  | And_  (** bitwise AND (l.and, l.andi) *)
  | Or_   (** bitwise OR (l.or, l.ori, l.movhi) *)
  | Xor_  (** bitwise XOR (l.xor, l.xori) *)

val all : t list

val name : t -> string
(** Short lower-case name, e.g. ["mul"]. *)

val apply : t -> U32.t -> U32.t -> U32.t
(** Architectural (fault-free) semantics on 32-bit operands: the value the
    EX-stage result register latches for this class. Shift classes use the
    low five bits of the second operand. *)

val index : t -> int
(** Dense index in [0 .. count - 1], consistent with the order of {!all}. *)

val count : int
