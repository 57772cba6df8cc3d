(** The OR1K-subset instruction set of the modelled core.

    This follows the OpenRISC 1000 integer subset the benchmarks need:
    register-register and register-immediate ALU operations (including the
    single-cycle 32-bit multiply), set-flag compares, conditional branches
    on the flag, jumps, and byte/half/word loads and stores. Mnemonics and
    binary encodings follow the OR1K specification's major opcode map.
    Unlike base OR1K, branches and jumps have {e no delay slot} (as with
    the `CPUCFGR.ND` configuration of later OR1K implementations) — the
    pipeline model accounts for the flush penalty instead.

    [r0] reads as zero and writes to it are discarded, per OR1K software
    convention. *)

open Sfi_util

type reg = int
(** Register index 0..31. *)

(** Set-flag comparison conditions of the l.sf family. *)
type cmp = Eq | Ne | Gtu | Geu | Ltu | Leu | Gts | Ges | Lts | Les

type t =
  (* register-register ALU (opcode 0x38) *)
  | Add of reg * reg * reg      (** rD = rA + rB *)
  | Sub of reg * reg * reg
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Xor of reg * reg * reg
  | Mul of reg * reg * reg      (** low 32 bits, single cycle *)
  | Sll of reg * reg * reg
  | Srl of reg * reg * reg
  | Sra of reg * reg * reg
  (* register-immediate ALU *)
  | Addi of reg * reg * int     (** I sign-extended *)
  | Andi of reg * reg * int     (** I zero-extended *)
  | Ori of reg * reg * int      (** I zero-extended *)
  | Xori of reg * reg * int     (** I sign-extended (per OR1K spec) *)
  | Muli of reg * reg * int     (** I sign-extended *)
  | Slli of reg * reg * int     (** 5-bit shift count *)
  | Srli of reg * reg * int
  | Srai of reg * reg * int
  | Movhi of reg * int          (** rD = K << 16 *)
  (* flag compares *)
  | Sf of cmp * reg * reg
  | Sfi of cmp * reg * int      (** I sign-extended *)
  (* control flow; immediate offsets are in instruction words relative to
     the branch instruction's own address (OR1K semantics), resolved from
     labels by the assembler. [J 0] jumps to itself. *)
  | J of int
  | Jal of int                  (** link register is r9 *)
  | Jr of reg
  | Jalr of reg
  | Bf of int                   (** branch if flag set *)
  | Bnf of int                  (** branch if flag clear *)
  (* memory, I sign-extended byte offset *)
  | Lwz of reg * int * reg      (** rD = mem32[rA + I] *)
  | Lhz of reg * int * reg      (** zero-extended halfword *)
  | Lbz of reg * int * reg      (** zero-extended byte *)
  | Sw of int * reg * reg       (** mem32[rA + I] = rB *)
  | Sh of int * reg * reg
  | Sb of int * reg * reg
  | Nop of int                  (** l.nop K; K values carry simulator hints *)

val nop_exit : int
(** l.nop 0x0001: terminate simulation (or1ksim convention). *)

val nop_kernel_begin : int
(** l.nop 0x0010: enable fault injection (kernel region starts). *)

val nop_kernel_end : int
(** l.nop 0x0011: disable fault injection (kernel region ends). *)

val link_register : reg
(** r9, the OR1K link register used by [Jal]/[Jalr]. *)

val op_class : t -> Op_class.t option
(** The ALU class an instruction exercises in the execution stage, or
    [None] for instructions whose destination flip-flops are outside the
    32 fault-prone ALU endpoints: loads, stores, control flow, nop — and
    compares, whose 1-bit flag register belongs to the timing-safe set of
    the case study's constraint strategy (paper Sec. 2.1). *)

val writes : t -> reg option
(** Destination register, if any ([Jal]/[Jalr] write the link register). *)

val reads : t -> reg list
(** Source registers (excluding the implicit flag). *)

val cmp_name : cmp -> string
(** e.g. ["gts"]. *)

val cmp_of_name : string -> cmp option

val to_string : t -> string
(** Assembly text, e.g. ["l.addi r3, r3, -1"]; parseable by [Asm]. *)
