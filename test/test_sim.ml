open Sfi_util
open Sfi_isa
open Sfi_sim

(* ---------- memory ---------- *)

let test_memory_endianness () =
  let m = Memory.create ~size:64 in
  Memory.write_u32 m 0 0x1122_3344;
  Alcotest.(check int) "big-endian byte 0" 0x11 (Memory.read_u8 m 0);
  Alcotest.(check int) "big-endian byte 3" 0x44 (Memory.read_u8 m 3);
  Alcotest.(check int) "halfword hi" 0x1122 (Memory.read_u16 m 0);
  Alcotest.(check int) "halfword lo" 0x3344 (Memory.read_u16 m 2);
  Alcotest.(check int) "word" 0x1122_3344 (Memory.read_u32 m 0)

let test_memory_wraps () =
  let m = Memory.create ~size:64 in
  Memory.write_u32 m 0 0xDEAD_BEEF;
  Alcotest.(check int) "read wraps" 0xDEAD_BEEF (Memory.read_u32 m 64);
  Alcotest.(check int) "read wraps high bits" 0xDEAD_BEEF (Memory.read_u32 m 0x1_0000_0040);
  Memory.write_u8 m (64 + 1) 0xAA;
  Alcotest.(check int) "write wraps" 0xAA (Memory.read_u8 m 1)

let test_memory_misalignment_traps () =
  let m = Memory.create ~size:64 in
  let raises f = try f (); false with Memory.Trap _ -> true in
  Alcotest.(check bool) "word read" true (raises (fun () -> ignore (Memory.read_u32 m 2)));
  Alcotest.(check bool) "word write" true (raises (fun () -> Memory.write_u32 m 1 0));
  Alcotest.(check bool) "half read" true (raises (fun () -> ignore (Memory.read_u16 m 1)))

let test_memory_rejects_bad_size () =
  (* The fetch wrap and the decode-cache invalidation mask are
     [addr land (size - 1)]: on a non-power-of-two size they silently
     alias wrong addresses, so creation must reject (Cpu.run re-checks
     the same invariant on its own entry path). *)
  let rejected size =
    try
      ignore (Memory.create ~size);
      false
    with Invalid_argument _ -> true
  in
  List.iter
    (fun size ->
      Alcotest.(check bool) (Printf.sprintf "size %d rejected" size) true (rejected size))
    [ 48; 0; -64; 3; 4095; 65537 ];
  List.iter
    (fun size ->
      Alcotest.(check bool)
        (Printf.sprintf "size %d accepted" size)
        false (rejected size))
    [ 4; 64; 4096; 65536 ]

let test_memory_copy_independent () =
  let m = Memory.create ~size:64 in
  Memory.write_u32 m 0 1;
  let m' = Memory.copy m in
  Memory.write_u32 m' 0 2;
  Alcotest.(check int) "original untouched" 1 (Memory.read_u32 m 0)

(* ---------- cpu helpers ---------- *)

let run_insns ?(size = 4096) ?config insns =
  let program = Program.of_insns insns in
  let mem = Memory.create ~size in
  Memory.load_program mem program;
  let stats = Cpu.run ?config mem ~entry:0 in
  (stats, mem)

let run_asm ?(size = 4096) ?config src =
  let program = Asm.assemble_exn src in
  let mem = Memory.create ~size in
  Memory.load_program mem program;
  let stats = Cpu.run ?config mem ~entry:program.Program.entry in
  (stats, mem, program)

(* ---------- basic execution ---------- *)

let test_cpu_arith_and_store () =
  let _, mem =
    run_insns
      [
        Insn.Addi (1, 0, 5);
        Insn.Addi (2, 0, 7);
        Insn.Add (3, 1, 2);
        Insn.Mul (4, 1, 2);
        Insn.Sub (5, 1, 2);
        Insn.Sw (0x100, 0, 3);
        Insn.Sw (0x104, 0, 4);
        Insn.Sw (0x108, 0, 5);
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "add" 12 (Memory.read_u32 mem 0x100);
  Alcotest.(check int) "mul" 35 (Memory.read_u32 mem 0x104);
  Alcotest.(check int) "sub wraps" 0xFFFF_FFFE (Memory.read_u32 mem 0x108)

let test_cpu_r0_is_zero () =
  let _, mem =
    run_insns
      [
        Insn.Addi (0, 0, 123); (* write to r0 discarded *)
        Insn.Sw (0x100, 0, 0);
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "r0 stays zero" 0 (Memory.read_u32 mem 0x100)

let test_cpu_movhi_ori () =
  let _, mem =
    run_insns
      [
        Insn.Movhi (1, 0xDEAD);
        Insn.Ori (1, 1, 0xBEEF);
        Insn.Sw (0x100, 0, 1);
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "constant" 0xDEAD_BEEF (Memory.read_u32 mem 0x100)

let test_cpu_shift_semantics () =
  let _, mem =
    run_insns
      [
        Insn.Movhi (1, 0x8000);
        Insn.Srai (2, 1, 4);
        Insn.Srli (3, 1, 4);
        Insn.Addi (4, 0, 33); (* shift amounts are mod 32 *)
        Insn.Sll (5, 1, 4);
        Insn.Sw (0x100, 0, 2);
        Insn.Sw (0x104, 0, 3);
        Insn.Sw (0x108, 0, 5);
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "sra" 0xF800_0000 (Memory.read_u32 mem 0x100);
  Alcotest.(check int) "srl" 0x0800_0000 (Memory.read_u32 mem 0x104);
  Alcotest.(check int) "sll mod 32" 0x0000_0000 (Memory.read_u32 mem 0x108)

let test_cpu_loads () =
  let _, mem, _ =
    run_asm
      {|
        l.movhi r2, hi(data)
        l.ori   r2, r2, lo(data)
        l.lwz   r3, 0(r2)
        l.lhz   r4, 0(r2)
        l.lhz   r5, 2(r2)
        l.lbz   r6, 1(r2)
        l.sw    0x100(r0), r3
        l.sw    0x104(r0), r4
        l.sw    0x108(r0), r5
        l.sw    0x10c(r0), r6
        l.nop   0x1
data:   .word 0xa1b2c3d4
      |}
  in
  Alcotest.(check int) "lwz" 0xA1B2_C3D4 (Memory.read_u32 mem 0x100);
  Alcotest.(check int) "lhz hi" 0xA1B2 (Memory.read_u32 mem 0x104);
  Alcotest.(check int) "lhz lo" 0xC3D4 (Memory.read_u32 mem 0x108);
  Alcotest.(check int) "lbz" 0xB2 (Memory.read_u32 mem 0x10C)

(* All compare conditions against an OCaml oracle over tricky operands. *)
let test_cpu_compare_oracle () =
  let operands =
    [ (0, 0); (1, 2); (2, 1); (0x7FFF_FFFF, 0x8000_0000); (0x8000_0000, 0x7FFF_FFFF);
      (0xFFFF_FFFF, 0); (0, 0xFFFF_FFFF); (0xFFFF_FFFF, 0xFFFF_FFFE); (5, 5) ]
  in
  let oracle cmp a b =
    let sa = U32.to_signed a and sb = U32.to_signed b in
    match cmp with
    | Insn.Eq -> a = b
    | Insn.Ne -> a <> b
    | Insn.Gtu -> a > b
    | Insn.Geu -> a >= b
    | Insn.Ltu -> a < b
    | Insn.Leu -> a <= b
    | Insn.Gts -> sa > sb
    | Insn.Ges -> sa >= sb
    | Insn.Lts -> sa < sb
    | Insn.Les -> sa <= sb
  in
  List.iter
    (fun cmp ->
      List.iter
        (fun (a, b) ->
          let _, mem =
            run_insns
              [
                Insn.Movhi (1, a lsr 16);
                Insn.Ori (1, 1, a land 0xFFFF);
                Insn.Movhi (2, b lsr 16);
                Insn.Ori (2, 2, b land 0xFFFF);
                Insn.Sf (cmp, 1, 2);
                Insn.Addi (3, 0, 0);
                Insn.Bf 2;                (* skip next if flag *)
                Insn.J 2;
                Insn.Addi (3, 0, 1);
                Insn.Sw (0x100, 0, 3);
                Insn.Nop Insn.nop_exit;
              ]
          in
          let got = Memory.read_u32 mem 0x100 = 1 in
          if got <> oracle cmp a b then
            Alcotest.failf "sf%s %08x %08x: got %b" (Insn.cmp_name cmp) a b got)
        operands)
    [ Insn.Eq; Insn.Ne; Insn.Gtu; Insn.Geu; Insn.Ltu; Insn.Leu; Insn.Gts; Insn.Ges;
      Insn.Lts; Insn.Les ]

let test_cpu_jal_jr () =
  let _, mem, _ =
    run_asm
      {|
        l.jal  sub
        l.sw   0x104(r0), r3    # executed after return
        l.nop  0x1
sub:    l.addi r3, r0, 42
        l.jr   r9
      |}
  in
  Alcotest.(check int) "returned and stored" 42 (Memory.read_u32 mem 0x104)

let test_cpu_loop_sum () =
  (* sum 1..10 *)
  let _, mem, _ =
    run_asm
      {|
        l.addi r1, r0, 10
        l.addi r2, r0, 0
loop:   l.add  r2, r2, r1
        l.addi r1, r1, -1
        l.sfnei r1, 0
        l.bf   loop
        l.sw   0x100(r0), r2
        l.nop  0x1
      |}
  in
  Alcotest.(check int) "sum" 55 (Memory.read_u32 mem 0x100)

(* ---------- pipeline timing ---------- *)

let test_cpu_straightline_cycles () =
  (* n independent ALU instructions plus exit: 1 cycle each. *)
  let stats, _ =
    run_insns
      [
        Insn.Addi (1, 0, 1);
        Insn.Addi (2, 0, 2);
        Insn.Addi (3, 0, 3);
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "3 cycles before exit" 3 stats.Cpu.cycles;
  Alcotest.(check int) "3 retired" 3 stats.Cpu.instret

let test_cpu_taken_branch_penalty () =
  let stats, _ =
    run_insns [ Insn.J 1; Insn.Nop Insn.nop_exit ]
  in
  (* jump: 1 cycle + 2 flush. *)
  Alcotest.(check int) "jump costs 3" 3 stats.Cpu.cycles

let test_cpu_untaken_branch_no_penalty () =
  let stats, _ =
    run_insns
      [ Insn.Sfi (Insn.Eq, 0, 1); Insn.Bf 1; Insn.Nop Insn.nop_exit ]
  in
  (* sfi + untaken bf = 2 cycles. *)
  Alcotest.(check int) "no flush" 2 stats.Cpu.cycles

let test_cpu_load_use_stall () =
  let base =
    let stats, _ =
      run_insns
        [
          Insn.Lwz (1, 0x100, 0);
          Insn.Addi (2, 0, 1); (* independent: no stall *)
          Insn.Nop Insn.nop_exit;
        ]
    in
    stats.Cpu.cycles
  in
  let stalled =
    let stats, _ =
      run_insns
        [
          Insn.Lwz (1, 0x100, 0);
          Insn.Addi (2, 1, 1); (* dependent: one-cycle interlock *)
          Insn.Nop Insn.nop_exit;
        ]
    in
    stats.Cpu.cycles
  in
  Alcotest.(check int) "one stall cycle" (base + 1) stalled

let test_cpu_load_use_gap_no_stall () =
  let stats, _ =
    run_insns
      [
        Insn.Lwz (1, 0x100, 0);
        Insn.Addi (3, 0, 7); (* filler covers the load latency *)
        Insn.Addi (2, 1, 1);
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "no stall with filler" 3 stats.Cpu.cycles

(* ---------- outcomes ---------- *)

let test_cpu_watchdog () =
  let config = { Cpu.default_config with Cpu.max_cycles = 1000 } in
  let stats, _ =
    run_insns ~config [ Insn.Addi (1, 0, 1); Insn.J (-1) ]
  in
  Alcotest.(check bool) "watchdog" true (stats.Cpu.outcome = Cpu.Watchdog)

let test_cpu_jump_to_self_fast_abort () =
  let stats, _ = run_insns [ Insn.J 0 ] in
  Alcotest.(check bool) "immediate watchdog" true (stats.Cpu.outcome = Cpu.Watchdog);
  Alcotest.(check bool) "did not burn the budget" true (stats.Cpu.cycles < 1000)

let test_cpu_illegal_instruction () =
  let program = Program.of_insns [ Insn.Nop 0 ] in
  let mem = Memory.create ~size:4096 in
  Memory.load_program mem program;
  Memory.write_u32 mem 4 0xFFFF_FFFF;
  let stats = Cpu.run mem ~entry:0 in
  (match stats.Cpu.outcome with
  | Cpu.Trapped _ -> ()
  | _ -> Alcotest.fail "expected trap")

let test_cpu_misaligned_load_traps () =
  let stats, _ =
    run_insns [ Insn.Addi (1, 0, 2); Insn.Lwz (2, 0, 1); Insn.Nop Insn.nop_exit ]
  in
  (match stats.Cpu.outcome with
  | Cpu.Trapped _ -> ()
  | _ -> Alcotest.fail "expected alignment trap")

(* ---------- kernel markers & fault hook ---------- *)

let test_cpu_kernel_markers_gate_fi () =
  let calls = ref 0 in
  let hook ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ =
    incr calls;
    0
  in
  let config = { Cpu.default_config with Cpu.fault_hook = Some hook } in
  let stats, _ =
    run_insns ~config
      [
        Insn.Addi (1, 0, 1); (* outside: no hook *)
        Insn.Nop Insn.nop_kernel_begin;
        Insn.Addi (2, 0, 2);
        Insn.Addi (3, 0, 3);
        Insn.Nop Insn.nop_kernel_end;
        Insn.Addi (4, 0, 4); (* outside again *)
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "hook called only in window" 2 !calls;
  Alcotest.(check int) "alu counted in window" 2 stats.Cpu.alu_retired

let test_cpu_fault_mask_applied () =
  let hook ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ = 0b100 in
  let config = { Cpu.default_config with Cpu.fault_hook = Some hook } in
  let _, mem =
    run_insns ~config
      [
        Insn.Nop Insn.nop_kernel_begin;
        Insn.Addi (1, 0, 1);
        Insn.Nop Insn.nop_kernel_end;
        Insn.Sw (0x100, 0, 1);
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "bit 2 flipped" 0b101 (Memory.read_u32 mem 0x100)

let test_cpu_compares_not_faulted () =
  (* Compares must not invoke the ALU fault hook (flag FF is safe). *)
  let calls = ref 0 in
  let hook ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ =
    incr calls;
    0
  in
  let config = { Cpu.default_config with Cpu.fault_hook = Some hook } in
  let _ =
    run_insns ~config
      [
        Insn.Nop Insn.nop_kernel_begin;
        Insn.Sfi (Insn.Eq, 0, 0);
        Insn.Sf (Insn.Ltu, 1, 2);
        Insn.Nop Insn.nop_kernel_end;
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "no hook calls" 0 !calls

let test_cpu_wrapped_store_corrupts_code () =
  (* A store through a wrapped wild pointer lands inside the image: the
     self-modifying path must invalidate the decode cache. *)
  let _, mem, _ =
    run_asm
      {|
        l.movhi r1, hi(target)
        l.ori   r1, r1, lo(target)
        l.movhi r2, hi(0x15000001)   # l.nop 0x1 encoding
        l.ori   r2, r2, lo(0x15000001)
        l.sw    0(r1), r2            # overwrite the trap below with exit
target: .word 0xffffffff             # would trap if executed unmodified
      |}
  in
  ignore mem

let test_cpu_aliased_store_invalidates_decode () =
  (* Regression: the decode-cache invalidation must wrap the store
     address with the SRAM decoder mask exactly like the data path. A
     store through a pointer with a flipped high bit (the signature of
     an injected timing fault on an address computation) aliases a
     low address; if that address holds an instruction that has already
     executed — and is therefore decode-cached — the patched word must
     be re-decoded on the next fetch, not served stale. *)
  let patched = Encode.encode (Insn.Addi (3, 3, 10)) in
  let _, mem, _ =
    run_asm
      (Printf.sprintf
         {|
        l.movhi r8, 0x8000
        l.movhi r1, hi(target)
        l.ori   r1, r1, lo(target)
        l.add   r1, r1, r8           # target aliased through bit 31
        l.movhi r2, hi(0x%08x)
        l.ori   r2, r2, lo(0x%08x)
        l.addi  r4, r0, 0
loop:
target: l.addi  r3, r3, 1            # patched to +10 after first pass
        l.sw    0(r1), r2
        l.sfeqi r4, 0
        l.addi  r4, r4, 1
        l.bf    loop
        l.sw    0x100(r0), r3
        l.nop   0x1
      |}
         patched patched)
  in
  (* Pass 1 adds 1, pass 2 runs the patched +10: a stale decode cache
     would yield 2 instead. *)
  Alcotest.(check int) "patched insn executed on second pass" 11
    (Memory.read_u32 mem 0x100)

let test_cpu_trace_hook () =
  let traced = ref [] in
  let program =
    Program.of_insns [ Insn.Addi (1, 0, 1); Insn.Addi (2, 0, 2); Insn.Nop Insn.nop_exit ]
  in
  let mem = Memory.create ~size:4096 in
  Memory.load_program mem program;
  let _ =
    Cpu.run_reference ~trace:(fun ~pc insn -> traced := (pc, insn) :: !traced) mem ~entry:0
  in
  let traced = List.rev !traced in
  Alcotest.(check int) "three instructions traced" 3 (List.length traced);
  (match traced with
  | (pc0, Insn.Addi (1, 0, 1)) :: (pc1, _) :: _ ->
    Alcotest.(check int) "first pc" 0 pc0;
    Alcotest.(check int) "second pc" 4 pc1
  | _ -> Alcotest.fail "unexpected trace")

let test_cpu_stats_class_counts () =
  let config = Cpu.default_config in
  let stats, _ =
    run_insns ~config
      [
        Insn.Nop Insn.nop_kernel_begin;
        Insn.Addi (1, 0, 1);
        Insn.Mul (2, 1, 1);
        Insn.Mul (3, 1, 1);
        Insn.Xor (4, 1, 1);
        Insn.Nop Insn.nop_kernel_end;
        Insn.Nop Insn.nop_exit;
      ]
  in
  Alcotest.(check int) "adds" 1 stats.Cpu.class_counts.(Op_class.index Op_class.Add);
  Alcotest.(check int) "muls" 2 stats.Cpu.class_counts.(Op_class.index Op_class.Mul);
  Alcotest.(check int) "xors" 1 stats.Cpu.class_counts.(Op_class.index Op_class.Xor_)

let () =
  Alcotest.run "sfi_sim"
    [
      ( "memory",
        [
          Alcotest.test_case "endianness" `Quick test_memory_endianness;
          Alcotest.test_case "address wrap" `Quick test_memory_wraps;
          Alcotest.test_case "misalignment traps" `Quick test_memory_misalignment_traps;
          Alcotest.test_case "rejects bad size" `Quick test_memory_rejects_bad_size;
          Alcotest.test_case "copy independent" `Quick test_memory_copy_independent;
        ] );
      ( "execute",
        [
          Alcotest.test_case "arith and store" `Quick test_cpu_arith_and_store;
          Alcotest.test_case "r0 hardwired" `Quick test_cpu_r0_is_zero;
          Alcotest.test_case "movhi/ori" `Quick test_cpu_movhi_ori;
          Alcotest.test_case "shifts" `Quick test_cpu_shift_semantics;
          Alcotest.test_case "loads" `Quick test_cpu_loads;
          Alcotest.test_case "compare oracle" `Quick test_cpu_compare_oracle;
          Alcotest.test_case "jal/jr" `Quick test_cpu_jal_jr;
          Alcotest.test_case "loop sum" `Quick test_cpu_loop_sum;
        ] );
      ( "timing",
        [
          Alcotest.test_case "straight-line" `Quick test_cpu_straightline_cycles;
          Alcotest.test_case "taken branch penalty" `Quick test_cpu_taken_branch_penalty;
          Alcotest.test_case "untaken branch free" `Quick test_cpu_untaken_branch_no_penalty;
          Alcotest.test_case "load-use stall" `Quick test_cpu_load_use_stall;
          Alcotest.test_case "load-use gap" `Quick test_cpu_load_use_gap_no_stall;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "watchdog" `Quick test_cpu_watchdog;
          Alcotest.test_case "jump-to-self" `Quick test_cpu_jump_to_self_fast_abort;
          Alcotest.test_case "illegal instruction" `Quick test_cpu_illegal_instruction;
          Alcotest.test_case "misaligned load" `Quick test_cpu_misaligned_load_traps;
        ] );
      ( "fault hook",
        [
          Alcotest.test_case "kernel markers" `Quick test_cpu_kernel_markers_gate_fi;
          Alcotest.test_case "mask applied" `Quick test_cpu_fault_mask_applied;
          Alcotest.test_case "compares not faulted" `Quick test_cpu_compares_not_faulted;
          Alcotest.test_case "self-modifying store" `Quick test_cpu_wrapped_store_corrupts_code;
          Alcotest.test_case "aliased store invalidates decode" `Quick
            test_cpu_aliased_store_invalidates_decode;
          Alcotest.test_case "trace hook" `Quick test_cpu_trace_hook;
          Alcotest.test_case "class counts" `Quick test_cpu_stats_class_counts;
        ] );
    ]
