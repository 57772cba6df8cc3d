open Sfi_util

(* Pre-resolved micro-op form of the ISA, shared by the simulator's
   interpreter (as its unboxed decode cache) and by the compiled
   basic-block engine (as the source language blocks are copied from).

   Each instruction word of the SRAM image maps to one quad of native
   ints at [tab.(idx*4 .. idx*4+3)]: an opcode from the [u_*] space
   below plus three operands with all decode work already done —
   register indices extracted, immediates sign/zero-extended to
   canonical 32-bit values, jump/branch targets resolved to absolute
   byte addresses (legal because the table is indexed by the wrapped
   fetch pc, so the word's pc is [idx lsl 2]), and ALU opcodes fused
   with their {!Op_class.index}. Executing from the table therefore
   needs no [Insn.t] allocation and no variant dispatch.

   Slot 0 of a quad is [u_unfilled] until {!decode_into} runs for that
   word ([Array.make 0] gives a whole-table cold state for free), and
   becomes [u_illegal] when {!Encode.decode} returns [None]. A
   store into a word resets its slot to [u_unfilled]; the next fetch
   re-decodes, which is exactly the old boxed
   [Insn.t option option array] protocol without the option cells. *)

let u_unfilled = 0

let u_illegal = 1

(* ALU register-register: x = rD, y = rA, z = rB;
   class = op - u_alu_rr in {!Op_class.index} order. *)
let u_alu_rr = 2

(* ALU register-immediate: x = rD, y = rA, z = resolved 32-bit operand
   (sign-extended for addi/xori/muli, zero-extended for andi/ori, the
   shift amount for slli/srli/srai, the shifted constant for movhi —
   movhi becomes class Or_ with y = r0). *)
let u_alu_ri = 11

let u_sf = 20 (* x = cmp index, y = rA, z = rB *)

let u_sfi = 21 (* x = cmp index, y = rA, z = imm32 *)

let u_j = 22 (* x = absolute target *)

let u_j_self = 23 (* l.j 0: architectural infinite loop -> Watchdog *)

let u_jal = 24 (* x = absolute target, y = link value (pc + 4) *)

let u_jr = 25 (* x = rB *)

let u_jalr = 26 (* x = rB, y = link value (pc + 4) *)

let u_bf = 27 (* x = absolute target *)

let u_bnf = 28 (* x = absolute target *)

let u_lwz = 29 (* x = rD, y = imm32, z = rA *)

let u_lhz = 30

let u_lbz = 31

let u_sw = 32 (* x = imm32, y = rA, z = rB *)

let u_sh = 33

let u_sb = 34

let u_nop = 35

let u_nop_exit = 36

let u_nop_kernel_begin = 37

let u_nop_kernel_end = 38

(* Dense lookup tables closing the int-code <-> variant gap on the two
   paths where the executor still needs the variant (class application
   via Op_class, flag computation via Insn.cmp). Order is pinned to
   Op_class.index / Encode.cmp_code's declaration order. *)
let cls_table = Array.of_list Op_class.all

let cmp_table =
  [|
    Insn.Eq; Insn.Ne; Insn.Gtu; Insn.Geu; Insn.Ltu; Insn.Leu; Insn.Gts; Insn.Ges;
    Insn.Lts; Insn.Les;
  |]

let cmp_index = function
  | Insn.Eq -> 0
  | Insn.Ne -> 1
  | Insn.Gtu -> 2
  | Insn.Geu -> 3
  | Insn.Ltu -> 4
  | Insn.Leu -> 5
  | Insn.Gts -> 6
  | Insn.Ges -> 7
  | Insn.Lts -> 8
  | Insn.Les -> 9

let[@inline] set tab base op x y z =
  Array.unsafe_set tab base op;
  Array.unsafe_set tab (base + 1) x;
  Array.unsafe_set tab (base + 2) y;
  Array.unsafe_set tab (base + 3) z

(* The quad of {!Encode.decode}'s instruction, so the two cannot
   disagree. Decoding is cold (once per code word per domain and image
   change), so the variant it allocates costs nothing measurable.
   Direct targets are wrapped with the SRAM decoder mask at decode
   time — the same wrap the fetch stage would apply — so taken branches
   land directly on a table index. *)
let decode_into tab ~idx ~addr_mask w =
  let base = idx lsl 2 in
  let pc = idx lsl 2 in
  let target off = (pc + (off lsl 2)) land addr_mask in
  let link = U32.of_int (pc + 4) in
  let rr cls d a b = set tab base (u_alu_rr + Op_class.index cls) d a b in
  let ri cls d a imm = set tab base (u_alu_ri + Op_class.index cls) d a (U32.of_int imm) in
  match Encode.decode w with
  | None -> set tab base u_illegal 0 0 0
  | Some insn -> (
    match insn with
    | Insn.Add (d, a, b) -> rr Op_class.Add d a b
    | Insn.Sub (d, a, b) -> rr Op_class.Sub d a b
    | Insn.And (d, a, b) -> rr Op_class.And_ d a b
    | Insn.Or (d, a, b) -> rr Op_class.Or_ d a b
    | Insn.Xor (d, a, b) -> rr Op_class.Xor_ d a b
    | Insn.Mul (d, a, b) -> rr Op_class.Mul d a b
    | Insn.Sll (d, a, b) -> rr Op_class.Sll d a b
    | Insn.Srl (d, a, b) -> rr Op_class.Srl d a b
    | Insn.Sra (d, a, b) -> rr Op_class.Sra d a b
    | Insn.Addi (d, a, i) -> ri Op_class.Add d a i
    | Insn.Andi (d, a, i) -> ri Op_class.And_ d a i
    | Insn.Ori (d, a, i) -> ri Op_class.Or_ d a i
    | Insn.Xori (d, a, i) -> ri Op_class.Xor_ d a i
    | Insn.Muli (d, a, i) -> ri Op_class.Mul d a i
    | Insn.Slli (d, a, s) -> ri Op_class.Sll d a s
    | Insn.Srli (d, a, s) -> ri Op_class.Srl d a s
    | Insn.Srai (d, a, s) -> ri Op_class.Sra d a s
    (* movhi: Or_ of r0 with the shifted constant, exactly the
       interpreter's [alu_result Or_ 0 ((k land 0xFFFF) lsl 16)]. *)
    | Insn.Movhi (d, k) -> ri Op_class.Or_ d 0 (k lsl 16)
    | Insn.Sf (c, a, b) -> set tab base u_sf (cmp_index c) a b
    | Insn.Sfi (c, a, i) -> set tab base u_sfi (cmp_index c) a (U32.of_int i)
    | Insn.J 0 -> set tab base u_j_self 0 0 0
    | Insn.J off -> set tab base u_j (target off) 0 0
    | Insn.Jal off -> set tab base u_jal (target off) link 0
    | Insn.Jr b -> set tab base u_jr b 0 0
    | Insn.Jalr b -> set tab base u_jalr b link 0
    | Insn.Bf off -> set tab base u_bf (target off) 0 0
    | Insn.Bnf off -> set tab base u_bnf (target off) 0 0
    | Insn.Lwz (d, i, a) -> set tab base u_lwz d (U32.of_int i) a
    | Insn.Lhz (d, i, a) -> set tab base u_lhz d (U32.of_int i) a
    | Insn.Lbz (d, i, a) -> set tab base u_lbz d (U32.of_int i) a
    | Insn.Sw (i, a, b) -> set tab base u_sw (U32.of_int i) a b
    | Insn.Sh (i, a, b) -> set tab base u_sh (U32.of_int i) a b
    | Insn.Sb (i, a, b) -> set tab base u_sb (U32.of_int i) a b
    | Insn.Nop k ->
      let o =
        if k = Insn.nop_exit then u_nop_exit
        else if k = Insn.nop_kernel_begin then u_nop_kernel_begin
        else if k = Insn.nop_kernel_end then u_nop_kernel_end
        else u_nop
      in
      set tab base o 0 0 0)
