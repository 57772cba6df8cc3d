(** Pre-resolved micro-op form of the ISA.

    One instruction word decodes to one quad of native ints,
    [tab.(idx*4) .. tab.(idx*4+3)]: an opcode from the [u_*] space plus
    three operands with every piece of decode work already performed —
    register indices extracted, immediates sign/zero-extended to
    canonical 32-bit values, jump and branch targets resolved to
    absolute byte addresses (valid because the table is indexed by the
    {e wrapped} fetch pc, so a word's pc is [idx lsl 2]), link values
    precomputed, and ALU opcodes fused with their {!Op_class.index}.

    The simulator uses one such table as its decode cache (quads start
    [u_unfilled]; a store resets the written word's slot 0 back to
    [u_unfilled]) and the compiled basic-block engine copies runs of
    quads out of it, so both engines execute the identical pre-resolved
    operands. [decode_into] writes the quad of {!Encode.decode}'s
    instruction, so the ISA has one decoder; a property test pins the
    quads to the documented layout. *)

open Sfi_util

(** {1 Opcode space} *)

val u_unfilled : int
(** 0 — slot not yet decoded ([Array.make _ 0] is an all-cold table). *)

val u_illegal : int
(** 1 — the word is not a valid encoding ({!Encode.decode} = [None]). *)

val u_alu_rr : int
(** 2..10: ALU reg-reg; [op - u_alu_rr] is the {!Op_class.index}.
    x = rD, y = rA, z = rB. *)

val u_alu_ri : int
(** 11..19: ALU reg-imm; [op - u_alu_ri] is the {!Op_class.index}.
    x = rD, y = rA, z = resolved 32-bit second operand (l.movhi decodes
    here as class [Or_] with y = r0 and z the shifted constant). *)

val u_sf : int
(** x = comparison index (see {!cmp_table}), y = rA, z = rB. *)

val u_sfi : int
(** x = comparison index, y = rA, z = sign-extended immediate. *)

val u_j : int
(** x = absolute byte target. *)

val u_j_self : int
(** [l.j 0]: architectural infinite loop, exits with [Watchdog]. *)

val u_jal : int
(** x = absolute byte target, y = link value ([pc + 4]). *)

val u_jr : int
(** x = rB. *)

val u_jalr : int
(** x = rB, y = link value ([pc + 4]). *)

val u_bf : int
(** x = absolute byte target. *)

val u_bnf : int
(** x = absolute byte target. *)

val u_lwz : int
(** x = rD, y = 32-bit displacement, z = rA base. Also the layout of
    [u_lhz] and [u_lbz]. *)

val u_lhz : int

val u_lbz : int

val u_sw : int
(** x = 32-bit displacement, y = rA base, z = rB source. Also the
    layout of [u_sh] and [u_sb]. *)

val u_sh : int

val u_sb : int

val u_nop : int

val u_nop_exit : int

val u_nop_kernel_begin : int

val u_nop_kernel_end : int

(** {1 Variant bridges} *)

val cls_table : Op_class.t array
(** [cls_table.(i)] is the class with {!Op_class.index} [i]. *)

val cmp_table : Insn.cmp array
(** Dense comparison table; indices are stable across runs. *)

val cmp_index : Insn.cmp -> int
(** Index of a comparison in {!cmp_table}. *)

(** {1 Decoding} *)

val decode_into : int array -> idx:int -> addr_mask:int -> int -> unit
(** [decode_into tab ~idx ~addr_mask w] decodes instruction word [w]
    fetched from word index [idx] (wrapped pc [idx lsl 2]) into
    [tab.(idx*4 .. idx*4+3)]. [addr_mask] is the SRAM decoder mask
    (memory size - 1); direct jump/branch targets are wrapped with it
    at decode time, exactly as the fetch stage would.
    [tab] must have at least [4 * (idx + 1)] elements. *)
