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
   becomes [u_illegal] when {!Encode.decode} would return [None]. A
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

(* OR1K l.sf* comparison codes (rD field), as Encode.cmp_of_code. *)
let cmp_index_of_code = function
  | 0x0 -> 0 (* eq *)
  | 0x1 -> 1 (* ne *)
  | 0x2 -> 2 (* gtu *)
  | 0x3 -> 3 (* geu *)
  | 0x4 -> 4 (* ltu *)
  | 0x5 -> 5 (* leu *)
  | 0xa -> 6 (* gts *)
  | 0xb -> 7 (* ges *)
  | 0xc -> 8 (* lts *)
  | 0xd -> 9 (* les *)
  | _ -> -1

let sext26 v = if v land (1 lsl 25) <> 0 then v - (1 lsl 26) else v

let[@inline] set tab base op x y z =
  Array.unsafe_set tab base op;
  Array.unsafe_set tab (base + 1) x;
  Array.unsafe_set tab (base + 2) y;
  Array.unsafe_set tab (base + 3) z

(* Local [@inline always] helpers instead of per-call closures: without
   flambda, closures binding this much context are heap-allocated on
   every call, which the decoder's allocation-pin test forbids. *)
let[@inline always] illegal tab base = set tab base u_illegal 0 0 0

let[@inline always] alu_rr tab base cls d a b =
  set tab base (u_alu_rr + Op_class.index cls) d a b

let[@inline always] alu_ri tab base cls d a imm32 =
  set tab base (u_alu_ri + Op_class.index cls) d a imm32

let[@inline always] imm_s w = U32.sext ~bits:16 (w land 0xFFFF)

(* Direct targets are wrapped with the SRAM decoder mask at decode
   time — the same wrap the fetch stage would apply — so taken
   branches land directly on a table index. *)
let[@inline always] target pc addr_mask w =
  (pc + (sext26 (w land 0x3FF_FFFF) lsl 2)) land addr_mask

(* Mirrors Encode.decode case by case (the differential property test
   pins the two against each other over random words), but writes int
   quads instead of allocating constructors, so a cold decode fill is
   allocation-free (pinned by a Gc.minor_words test). *)
let decode_into tab ~idx ~addr_mask w =
  let base = idx lsl 2 in
  let pc = idx lsl 2 in
  let op = (w lsr 26) land 0x3F in
  let d = (w lsr 21) land 0x1F in
  let a = (w lsr 16) land 0x1F in
  let b = (w lsr 11) land 0x1F in
  match op with
  | 0x00 ->
    if w land 0x3FF_FFFF = 0 then set tab base u_j_self 0 0 0
    else set tab base u_j (target pc addr_mask w) 0 0
  | 0x01 -> set tab base u_jal (target pc addr_mask w) (U32.of_int (pc + 4)) 0
  | 0x03 -> set tab base u_bnf (target pc addr_mask w) 0 0
  | 0x04 -> set tab base u_bf (target pc addr_mask w) 0 0
  | 0x05 ->
    if (w lsr 24) land 0x3 = 1 then begin
      let k = w land 0xFFFF in
      let o =
        if k = Insn.nop_exit then u_nop_exit
        else if k = Insn.nop_kernel_begin then u_nop_kernel_begin
        else if k = Insn.nop_kernel_end then u_nop_kernel_end
        else u_nop
      in
      set tab base o 0 0 0
    end
    else illegal tab base
  | 0x06 ->
    (* movhi: Or_ of r0 with the shifted constant, exactly the
       interpreter's [alu_result Or_ 0 ((k land 0xFFFF) lsl 16)]. *)
    if (w lsr 16) land 0x1 = 0 then
      set tab base (u_alu_ri + Op_class.index Op_class.Or_) d 0 ((w land 0xFFFF) lsl 16)
    else illegal tab base
  | 0x11 -> set tab base u_jr b 0 0
  | 0x12 -> set tab base u_jalr b (U32.of_int (pc + 4)) 0
  | 0x21 -> set tab base u_lwz d (imm_s w) a
  | 0x23 -> set tab base u_lbz d (imm_s w) a
  | 0x25 -> set tab base u_lhz d (imm_s w) a
  | 0x27 -> alu_ri tab base Op_class.Add d a (imm_s w)
  | 0x29 -> alu_ri tab base Op_class.And_ d a (w land 0xFFFF)
  | 0x2a -> alu_ri tab base Op_class.Or_ d a (w land 0xFFFF)
  | 0x2b -> alu_ri tab base Op_class.Xor_ d a (imm_s w)
  | 0x2c -> alu_ri tab base Op_class.Mul d a (imm_s w)
  | 0x2e ->
    let s = w land 0x3F in
    if s > 31 then illegal tab base
    else begin
      match (w lsr 6) land 0x3 with
      | 0b00 -> alu_ri tab base Op_class.Sll d a s
      | 0b01 -> alu_ri tab base Op_class.Srl d a s
      | 0b10 -> alu_ri tab base Op_class.Sra d a s
      | _ -> illegal tab base
    end
  | 0x2f ->
    let c = cmp_index_of_code d in
    if c < 0 then illegal tab base else set tab base u_sfi c a (imm_s w)
  | 0x35 | 0x36 | 0x37 ->
    let imm32 = U32.sext ~bits:16 ((d lsl 11) lor (w land 0x7FF)) in
    let o = if op = 0x35 then u_sw else if op = 0x36 then u_sb else u_sh in
    set tab base o imm32 a b
  | 0x38 -> begin
    match w land 0xF with
    | 0x0 when (w lsr 6) land 0xF = 0 -> alu_rr tab base Op_class.Add d a b
    | 0x2 when (w lsr 6) land 0xF = 0 -> alu_rr tab base Op_class.Sub d a b
    | 0x3 when (w lsr 6) land 0xF = 0 -> alu_rr tab base Op_class.And_ d a b
    | 0x4 when (w lsr 6) land 0xF = 0 -> alu_rr tab base Op_class.Or_ d a b
    | 0x5 when (w lsr 6) land 0xF = 0 -> alu_rr tab base Op_class.Xor_ d a b
    | 0x6 when (w lsr 8) land 0x3 = 0b11 -> alu_rr tab base Op_class.Mul d a b
    | 0x8 -> begin
      match (w lsr 6) land 0x3 with
      | 0b00 -> alu_rr tab base Op_class.Sll d a b
      | 0b01 -> alu_rr tab base Op_class.Srl d a b
      | 0b10 -> alu_rr tab base Op_class.Sra d a b
      | _ -> illegal tab base
    end
    | _ -> illegal tab base
  end
  | 0x39 ->
    let c = cmp_index_of_code d in
    if c < 0 then illegal tab base else set tab base u_sf c a b
  | _ -> illegal tab base
