open Sfi_util
open Sfi_isa
open Sfi_sim

(* Differential tests pinning the compiled basic-block engine
   ([Cpu.run]) to the reference interpreter ([Cpu.run_reference]): same
   cycles, same stats, same fault-hook call stream, same trace
   ordering, same outcomes — on the paths where the two implementations
   genuinely diverge in mechanism (block caching, batched accounting,
   threaded-code chaining). *)

(* ---------- helpers ---------- *)

type engine = Interp | Compiled

let engine_name = function Interp -> "interp" | Compiled -> "compiled"

let run_on engine ?config mem ~entry =
  match engine with
  | Interp -> Cpu.run_reference ?config mem ~entry
  | Compiled -> Cpu.run ?config mem ~entry

let run_insns engine ?(size = 4096) ?(config = Cpu.default_config) insns =
  let program = Program.of_insns insns in
  let mem = Memory.create ~size in
  Memory.load_program mem program;
  let stats = run_on engine ~config mem ~entry:0 in
  (stats, mem)

let run_asm engine ?(size = 4096) ?(config = Cpu.default_config) src =
  let program = Asm.assemble_exn src in
  let mem = Memory.create ~size in
  Memory.load_program mem program;
  let stats = run_on engine ~config mem ~entry:program.Program.entry in
  (stats, mem)

let check_stats_equal what (a : Cpu.stats) (b : Cpu.stats) =
  if a <> b then
    Alcotest.failf "%s: interp and compiled stats differ (%d vs %d cycles, %d vs %d instret)"
      what a.Cpu.cycles b.Cpu.cycles a.Cpu.instret b.Cpu.instret

(* Runs the same program under both engines and checks full stats
   equality plus an optional memory-word probe. *)
let parity ?(probe = []) ?size ?config what insns =
  let si, mi = run_insns Interp ?size ?config insns in
  let sc, mc = run_insns Compiled ?size ?config insns in
  check_stats_equal what si sc;
  List.iter
    (fun addr ->
      Alcotest.(check int)
        (Printf.sprintf "%s: word 0x%x" what addr)
        (Memory.read_u32 mi addr) (Memory.read_u32 mc addr))
    probe

let parity_asm ?(probe = []) ?size ?config what src =
  let si, mi = run_asm Interp ?size ?config src in
  let sc, mc = run_asm Compiled ?size ?config src in
  check_stats_equal what si sc;
  List.iter
    (fun addr ->
      Alcotest.(check int)
        (Printf.sprintf "%s: word 0x%x" what addr)
        (Memory.read_u32 mi addr) (Memory.read_u32 mc addr))
    probe

(* ---------- kernel parity: full benchmarks, fault-free ---------- *)

let test_kernel_parity () =
  List.iter
    (fun name ->
      match Sfi_kernels.Registry.by_name name with
      | None -> Alcotest.failf "unknown bench %s" name
      | Some bench ->
        let si, oi =
          let mem = Sfi_kernels.Bench.fresh_memory bench in
          let entry = bench.Sfi_kernels.Bench.program.Program.entry in
          let stats = Cpu.run_reference mem ~entry in
          (stats, Sfi_kernels.Bench.read_output bench mem)
        in
        let sc, oc = Sfi_kernels.Bench.run_fault_free bench in
        check_stats_equal name si sc;
        if oi <> oc then Alcotest.failf "%s: outputs differ between engines" name;
        if oc <> bench.Sfi_kernels.Bench.golden then
          Alcotest.failf "%s: compiled output differs from golden" name)
    Sfi_kernels.Registry.names

(* ---------- fault-hook stream parity ---------- *)

(* The hook's observable inputs (cycle, class, operands, clean result)
   and its injected masks must line up call for call: the compiled
   engine pre-resolves operands at block-build time and gates the call
   on a block-entry fi flag, both of which would skew this stream if
   wrong. The mask depends on every argument, so a single misaligned
   call derails the rest of the run — divergence cannot cancel out. *)
let test_hook_stream_parity () =
  let run engine =
    let calls = ref [] in
    let hook ~cycle ~cls ~a ~b ~result =
      calls := (cycle, Op_class.index cls, a, b, result) :: !calls;
      (cycle lxor a lxor b lxor result) land 0xFF
    in
    let config = { Cpu.default_config with Cpu.fault_hook = Some hook } in
    let stats, mem =
      run_asm engine ~config
        {|
        l.addi r1, r0, 40
        l.nop  0x10
loop:   l.add  r2, r2, r1
        l.mul  r3, r2, r1
        l.sw   0x200(r0), r3
        l.lwz  r4, 0x200(r0)
        l.xor  r5, r4, r2
        l.addi r1, r1, -1
        l.sfnei r1, 0
        l.bf   loop
        l.nop  0x11
        l.sw   0x100(r0), r5
        l.nop  0x1
      |}
    in
    (stats, List.rev !calls, Memory.read_u32 mem 0x100)
  in
  let si, ci, wi = run Interp in
  let sc, cc, wc = run Compiled in
  check_stats_equal "hook stream" si sc;
  Alcotest.(check int) "call count" (List.length ci) (List.length cc);
  if ci <> cc then Alcotest.fail "hook stream: call sequences differ";
  Alcotest.(check int) "faulted result" wi wc

(* ---------- self-modifying stores ---------- *)

let test_selfmod_parity () =
  (* A store patches an instruction of the loop it executes from; the
     compiled engine must flush the block cache and re-enter through
     the dispatcher with identical cycle accounting. *)
  let patched = Encode.encode (Insn.Addi (3, 3, 10)) in
  parity_asm ~probe:[ 0x100 ] "self-modifying loop"
    (Printf.sprintf
       {|
        l.movhi r1, hi(target)
        l.ori   r1, r1, lo(target)
        l.movhi r2, hi(0x%08x)
        l.ori   r2, r2, lo(0x%08x)
        l.addi  r4, r0, 0
loop:
target: l.addi  r3, r3, 1
        l.sw    0(r1), r2
        l.sfeqi r4, 0
        l.addi  r4, r4, 1
        l.bf    loop
        l.sw    0x100(r0), r3
        l.nop   0x1
      |}
       patched patched)

let test_selfmod_store_into_own_block () =
  (* The store lands on the instruction directly after itself — inside
     the currently-executing block. The compiled engine must abort the
     block at the store, retire exactly the instructions up to and
     including it, and re-decode before the patched word executes. *)
  let exit_word = Encode.encode (Insn.Nop Insn.nop_exit) in
  parity_asm ~probe:[ 0x100 ] "store into own block"
    (Printf.sprintf
       {|
        l.movhi r1, hi(target)
        l.ori   r1, r1, lo(target)
        l.movhi r2, hi(0x%08x)
        l.ori   r2, r2, lo(0x%08x)
        l.addi  r3, r0, 7
        l.sw    0x100(r0), r3
        l.sw    0(r1), r2
target: .word 0xffffffff
      |}
       exit_word exit_word)

(* ---------- trace-hook ordering ---------- *)

let test_trace_order_parity () =
  let run engine =
    let traced = ref [] in
    let config =
      {
        Cpu.default_config with
        Cpu.trace = Some (fun ~pc insn -> traced := (pc, Insn.to_string insn) :: !traced);
      }
    in
    let stats, _ =
      run_asm engine ~config
        {|
        l.addi r1, r0, 5
loop:   l.addi r2, r2, 1
        l.addi r1, r1, -1
        l.sfnei r1, 0
        l.bf   loop
        l.jal  sub
        l.nop  0x1
sub:    l.addi r3, r0, 9
        l.jr   r9
      |}
    in
    (stats, List.rev !traced)
  in
  let si, ti = run Interp in
  let sc, tc = run Compiled in
  check_stats_equal "trace order" si sc;
  if ti <> tc then Alcotest.fail "trace order: per-instruction (pc, insn) streams differ"

let test_trace_illegal_not_traced () =
  (* An illegal word traps at fetch; neither engine may call the trace
     hook for it (the compiled engine captures decoded insns at block
     build time, so the skip must be deliberate there). *)
  let run engine =
    let traced = ref [] in
    let config =
      { Cpu.default_config with Cpu.trace = Some (fun ~pc _ -> traced := pc :: !traced) }
    in
    let program = Program.of_insns [ Insn.Addi (1, 0, 1); Insn.Nop 0 ] in
    let mem = Memory.create ~size:4096 in
    Memory.load_program mem program;
    Memory.write_u32 mem 8 0xFFFF_FFFF;
    let stats = run_on engine ~config mem ~entry:0 in
    (stats, List.rev !traced)
  in
  let si, ti = run Interp in
  let sc, tc = run Compiled in
  check_stats_equal "illegal trace" si sc;
  (match si.Cpu.outcome with
  | Cpu.Trapped _ -> ()
  | _ -> Alcotest.fail "expected trap");
  Alcotest.(check (list int)) "traced pcs" ti tc;
  Alcotest.(check bool) "illegal pc not traced" false (List.mem 8 ti)

(* ---------- outcomes ---------- *)

let test_watchdog_parity () =
  let config = { Cpu.default_config with Cpu.max_cycles = 1000 } in
  parity ~config "watchdog budget" [ Insn.Addi (1, 0, 1); Insn.J (-1) ];
  (* Jump-to-self is recognized as an architectural hang without
     burning the budget — in both engines. *)
  parity "jump to self" [ Insn.Addi (1, 0, 1); Insn.J 0 ]

let test_watchdog_mid_block () =
  (* Budgets that expire mid-block force the compiled engine onto its
     per-instruction fallback path near the limit; every budget value
     must still produce the interpreter's exact cycle count. *)
  let insns =
    [
      Insn.Addi (1, 0, 1); Insn.Addi (2, 0, 2); Insn.Mul (3, 1, 2);
      Insn.Lwz (4, 0x100, 0); Insn.Add (5, 4, 3); Insn.J (-5);
    ]
  in
  for budget = 1 to 40 do
    let config = { Cpu.default_config with Cpu.max_cycles = budget } in
    parity ~config (Printf.sprintf "budget %d" budget) insns
  done

let test_trap_parity () =
  parity "misaligned load"
    [ Insn.Addi (1, 0, 2); Insn.Lwz (2, 0, 1); Insn.Nop Insn.nop_exit ];
  parity "misaligned store"
    [ Insn.Addi (1, 0, 6); Insn.Sw (0, 1, 1); Insn.Nop Insn.nop_exit ];
  parity "misaligned jump target"
    [ Insn.Addi (1, 0, 2); Insn.Jr 1; Insn.Nop Insn.nop_exit ];
  let illegal engine =
    let program = Program.of_insns [ Insn.Addi (1, 0, 1) ] in
    let mem = Memory.create ~size:4096 in
    Memory.load_program mem program;
    Memory.write_u32 mem 4 0xFFFF_FFFF;
    run_on engine mem ~entry:0
  in
  check_stats_equal "illegal instruction" (illegal Interp) (illegal Compiled)

(* ---------- kernel markers mid-block ---------- *)

let test_fi_toggle_mid_block () =
  (* Markers in the middle of straight-line code: the compiled engine
     terminates blocks at markers so the fi window stays constant
     within a block; the hook-call count and windowed counters must
     match the interpreter exactly, including a window that opens and
     closes twice. *)
  let run engine =
    let calls = ref 0 in
    let hook ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ =
      incr calls;
      0
    in
    let config = { Cpu.default_config with Cpu.fault_hook = Some hook } in
    let stats, _ =
      run_insns engine ~config
        [
          Insn.Addi (1, 0, 1);
          Insn.Nop Insn.nop_kernel_begin;
          Insn.Addi (2, 0, 2);
          Insn.Lwz (3, 0x100, 0);
          Insn.Nop Insn.nop_kernel_end;
          Insn.Addi (4, 0, 4);
          Insn.Nop Insn.nop_kernel_begin;
          Insn.Mul (5, 2, 4);
          Insn.Nop Insn.nop_kernel_end;
          Insn.Nop Insn.nop_exit;
        ]
    in
    (stats, !calls)
  in
  let si, ci = run Interp in
  let sc, cc = run Compiled in
  check_stats_equal "fi toggle" si sc;
  Alcotest.(check int) "hook calls" ci cc;
  (* Each window retires its begin marker, its body and its end marker
     inside the fi accounting: (1+2+1) + (1+1+1). *)
  Alcotest.(check int) "two windows counted" 7 si.Cpu.kernel_instret

(* ---------- allocation pins ---------- *)

(* Steady-state execution must not allocate per instruction in either
   engine: all compiled-engine allocation (blocks, closures, decode
   table) happens at block-build time. Measured as the growth between a
   short and a long run of the same loop — setup and compile cost
   cancels, leaving the per-instruction rate. *)
let test_steady_state_allocation () =
  let loop iters =
    Printf.sprintf
      {|
        l.movhi r1, hi(%d)
        l.ori   r1, r1, lo(%d)
loop:   l.add   r2, r2, r1
        l.lwz   r3, 0x200(r0)
        l.xor   r4, r3, r2
        l.sw    0x200(r0), r4
        l.addi  r1, r1, -1
        l.sfnei r1, 0
        l.bf    loop
        l.nop   0x1
      |}
      iters iters
  in
  List.iter
    (fun engine ->
      let measure iters =
        let program = Asm.assemble_exn (loop iters) in
        let mem = Memory.create ~size:4096 in
        Memory.load_program mem program;
        let w0 = Gc.minor_words () in
        let stats = run_on engine mem ~entry:program.Program.entry in
        let dw = Gc.minor_words () -. w0 in
        (dw, stats.Cpu.instret)
      in
      ignore (measure 100) (* warm boxing of the Gc counter itself *);
      let dw_small, n_small = measure 1_000 in
      let dw_big, n_big = measure 50_000 in
      let per_insn = (dw_big -. dw_small) /. float_of_int (n_big - n_small) in
      if per_insn > 0.01 then
        Alcotest.failf "%s engine allocates %.3f words/insn in steady state"
          (engine_name engine) per_insn)
    [ Interp; Compiled ]

let test_decode_into_allocation_free () =
  (* A cold decode fill allocates nothing (the point of the unboxed
     sentinel-coded table): decode a mix of legal and illegal words
     repeatedly and pin the minor-heap growth to zero. *)
  let words =
    Array.init 64 (fun i ->
        if i land 3 = 0 then 0xFFFF_FFFF (* illegal *)
        else Encode.encode (Insn.Addi (1, 2, i)))
  in
  let tab = Array.make (Array.length words * 4) Sfi_isa.Uop.u_unfilled in
  (* A plain for loop: Array.iteri would allocate its closure on every
     call and charge it to the decoder. *)
  let fill () =
    for idx = 0 to Array.length words - 1 do
      Sfi_isa.Uop.decode_into tab ~idx ~addr_mask:4095 (Array.unsafe_get words idx)
    done
  in
  fill () (* warm *);
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do fill () done;
  let dw = Gc.minor_words () -. w0 in
  (* The first Gc.minor_words call boxes its float result; everything
     after must be flat. *)
  if dw > 16. then Alcotest.failf "decode_into allocated %.0f minor words" dw

(* Repeated runs of one 64 KiB image reuse the domain's cached ISS
   state: the second run allocates no decode or block tables and
   compiles no block. Counted in minor words plus words allocated
   directly in the major heap (large arrays skip the minor heap), the
   latter from [Gc.quick_stat], whose minor count is not live. *)
let words_allocated f =
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  f ();
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  ( m1 -. m0,
    s1.Gc.major_words -. s0.Gc.major_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

let with_obs f =
  Sfi_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Sfi_obs.set_enabled false) f

let c_blocks_compiled = Sfi_obs.Counter.make ~det:false "cpu.blocks_compiled"

let aes = lazy (Option.get (Sfi_kernels.Registry.by_name "aes"))

let test_repeated_run_allocation () =
  let bench = Lazy.force aes in
  let pristine = Sfi_kernels.Bench.fresh_memory bench in
  let mem = Memory.copy pristine in
  let run () =
    Memory.blit ~src:pristine ~dst:mem;
    ignore
      (Cpu.run mem ~entry:bench.Sfi_kernels.Bench.program.Program.entry : Cpu.stats)
  in
  with_obs (fun () ->
      run ();
      let b0 = Sfi_obs.Counter.value c_blocks_compiled in
      let minor, major = words_allocated run in
      if minor +. major >= 1000. then
        Alcotest.failf "a repeated run allocated %.0f minor + %.0f direct-major words" minor
          major;
      Alcotest.(check int) "blocks compiled by a repeated run" b0
        (Sfi_obs.Counter.value c_blocks_compiled))

let test_trial_memory_reused () =
  let bench = Lazy.force aes in
  let model = Sfi_core.Flow.model_a ~bit_flip_prob:1e-4 in
  let trial seed =
    ignore (Sfi_fi.Campaign.run_trial ~bench ~model ~freq_mhz:700. ~seed : Sfi_fi.Campaign.trial)
  in
  trial 1;
  let _, major = words_allocated (fun () -> trial 2) in
  (* the image alone is mem_size / 8 words, the ISS tables ~14x that *)
  if major >= 1024. then
    Alcotest.failf "a repeated trial allocated %.0f words directly in the major heap" major

(* ---------- per-domain code cache ---------- *)

(* The decode table and compiled blocks of a domain's ISS state outlive
   a run. Each case below runs on this domain's cached state and again
   inside a freshly spawned domain, whose cache is empty, and requires
   the same stats, final memory and hook call stream. *)

type observed = {
  stats : Cpu.stats;
  mem_after : string;
  calls : (int * int * int * int * int) list; (* cycle, class, a, b, clean result *)
}

let image_of program =
  let mem = Memory.create ~size:4096 in
  Memory.load_program mem program;
  (mem, program.Program.entry)

let image src = image_of (Asm.assemble_exn src)

(* A hook that faults now and then, and depends on its arguments, so a
   stream misaligned by one call derails the rest of the run. *)
let sparse_mask ~cycle ~cls:_ ~a ~b:_ ~result = if cycle mod 7 = 3 then (a lxor result) land 0xF else 0

let observe ?(engine = Compiled) ?(max_cycles = 20_000) ?mask ?(fi_always_on = false)
    ?(prepare = ignore) (img, entry) =
  let mem = Memory.copy img in
  prepare mem;
  let calls = ref [] in
  let fault_hook =
    Option.map
      (fun mask ~cycle ~cls ~a ~b ~result ->
        calls := (cycle, Op_class.index cls, a, b, result) :: !calls;
        mask ~cycle ~cls ~a ~b ~result)
      mask
  in
  let config = { Cpu.default_config with Cpu.max_cycles; fault_hook; fi_always_on } in
  let stats = run_on engine ~config mem ~entry in
  { stats; mem_after = Memory.sub_string mem ~pos:0 ~len:(Memory.size mem); calls = List.rev !calls }

let uncached f = Domain.join (Domain.spawn f)

let check_cached what run =
  let cached = run () in
  if cached <> uncached run then
    Alcotest.failf "%s: differs from the same run on an uncached state" what

let src_loop =
  {|
        l.addi r1, r0, 40
        l.nop  0x10
loop:   l.add  r2, r2, r1
        l.mul  r3, r2, r1
        l.sw   0x200(r0), r3
        l.lwz  r4, 0x200(r0)
        l.xor  r5, r4, r2
        l.addi r1, r1, -1
        l.sfnei r1, 0
        l.bf   loop
        l.nop  0x11
        l.sw   0x100(r0), r5
        l.nop  0x1
      |}

let src_calls =
  {|
        l.addi r1, r0, 6
        l.nop  0x10
loop:   l.addi r2, r2, 3
        l.srli r6, r2, 1
        l.and  r7, r6, r1
        l.addi r1, r1, -1
        l.sfnei r1, 0
        l.bf   loop
        l.jal  sub
        l.nop  0x11
        l.sw   0x104(r0), r3
        l.nop  0x1
sub:    l.addi r3, r7, 9
        l.jr   r9
      |}

let test_cache_back_to_back () =
  let a = image src_loop and b = image src_calls in
  List.iteri
    (fun i (what, img) ->
      check_cached (Printf.sprintf "run %d (%s)" i what) (fun () -> observe ~mask:sparse_mask img))
    [ ("loop", a); ("calls", b); ("loop", a); ("calls", b) ];
  (* whole kernels at their own memory size, fault-free *)
  List.iter
    (fun name ->
      let bench = Option.get (Sfi_kernels.Registry.by_name name) in
      let img = (Sfi_kernels.Bench.fresh_memory bench, bench.Sfi_kernels.Bench.program.Program.entry) in
      check_cached name (fun () -> observe ~max_cycles:50_000_000 img))
    [ "median"; "aes"; "crc32"; "median" ]

let src_selfmod =
  let patched = Encode.encode (Insn.Addi (3, 3, 10)) in
  Printf.sprintf
    {|
        l.movhi r1, hi(target)
        l.ori   r1, r1, lo(target)
        l.movhi r2, hi(0x%08x)
        l.ori   r2, r2, lo(0x%08x)
        l.addi  r4, r0, 0
loop:
target: l.addi  r3, r3, 1
        l.sw    0(r1), r2
        l.sfeqi r4, 0
        l.addi  r4, r4, 1
        l.bf    loop
        l.sw    0x100(r0), r3
        l.nop   0x1
      |}
    patched patched

let test_cache_selfmod_then_pristine () =
  let img = image src_selfmod in
  List.iter
    (fun engine ->
      let name = engine_name engine in
      check_cached (name ^ ": self-modifying run") (fun () -> observe ~engine img);
      check_cached (name ^ ": pristine run after it") (fun () -> observe ~engine img))
    [ Compiled; Interp ]

let test_cache_code_rewritten () =
  let img, entry = image src_loop in
  (* directly: the loop's [l.addi r1, r1, -1] becomes [-2] *)
  let program = Asm.assemble_exn src_loop in
  let rewritten = Memory.copy img in
  Memory.write_u32 rewritten (Program.symbol program "loop" + 20)
    (Encode.encode (Insn.Addi (1, 1, -2)));
  List.iteri
    (fun i img ->
      check_cached (Printf.sprintf "direct rewrite, run %d" i) (fun () ->
          observe ~mask:sparse_mask (img, entry)))
    [ img; rewritten; img; rewritten ];
  (* through the state model: bit flips anywhere in the code at trial start *)
  let code_words = Array.length program.Program.words in
  let model =
    match
      Sfi_fi.Model.of_key ~resources:Sfi_fi.Model.default_resources
        ~params:
          [ ("flips", Sfi_obs.Json.Int 4); ("word_lo", Sfi_obs.Json.Int 0);
            ("word_hi", Sfi_obs.Json.Int code_words) ]
        "state"
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  for seed = 1 to 16 do
    let prepare mem =
      let inj = Sfi_fi.Injector.create ~model ~freq_mhz:700. ~rng:(Rng.of_int seed) () in
      ignore (Sfi_fi.Injector.trial_start inj mem : int)
    in
    check_cached (Printf.sprintf "state flips, seed %d" seed) (fun () ->
        observe ~max_cycles:2_000 ~prepare (img, entry));
    check_cached (Printf.sprintf "pristine after flips, seed %d" seed) (fun () ->
        observe (img, entry))
  done

let word_at s addr =
  (Char.code s.[addr] lsl 24)
  lor (Char.code s.[addr + 1] lsl 16)
  lor (Char.code s.[addr + 2] lsl 8)
  lor Char.code s.[addr + 3]

let test_cache_faulted_store_undecoded () =
  (* A fault redirects a store into [target], a word no block has
     decoded yet (the store's block ends at the jump); the patched word
     then executes. A pristine run of the same image must execute the
     original word. *)
  let patch = Encode.encode (Insn.Addi (3, 0, 7)) in
  let program =
    Asm.assemble_exn
      (Printf.sprintf
         {|
        l.movhi r2, hi(0x%08x)
        l.ori   r2, r2, lo(0x%08x)
        l.addi  r1, r0, 0x300
        l.sw    0(r1), r2
        l.j     target
        l.nop
target: l.addi  r3, r0, 1
        l.sw    0x100(r0), r3
        l.nop   0x1
      |}
         patch patch)
  in
  let target = Program.symbol program "target" in
  let redirect ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result =
    if result = 0x300 then 0x300 lxor target else 0
  in
  let img = image_of program in
  let faulted () = observe ~mask:redirect ~fi_always_on:true img in
  Alcotest.(check int) "the faulted run executes the patch" 7 (word_at (faulted ()).mem_after 0x100);
  check_cached "faulted store" faulted;
  check_cached "pristine run after it" (fun () -> observe img);
  Alcotest.(check int) "the pristine run executes the original" 1
    (word_at (observe img).mem_after 0x100)

let test_cache_watchdog_shrinking () =
  let img =
    image_of
      (Program.of_insns
         [
           Insn.Addi (1, 0, 1); Insn.Addi (2, 0, 2); Insn.Mul (3, 1, 2);
           Insn.Lwz (4, 0x100, 0); Insn.Add (5, 4, 3); Insn.J (-5);
         ])
  in
  List.iter
    (fun mask ->
      for max_cycles = 40 downto 1 do
        check_cached (Printf.sprintf "budget %d" max_cycles) (fun () ->
            observe ~max_cycles ?mask ~fi_always_on:true img)
      done)
    [ None; Some sparse_mask ]

let test_cache_alternating_configs () =
  let img = image src_loop in
  (* another image first, so the first compiled run below builds its
     blocks without a hook and the second must flush them *)
  check_cached "other image" (fun () -> observe (image src_calls));
  List.iteri
    (fun i (engine, hooked, fi_always_on) ->
      let mask = if hooked then Some sparse_mask else None in
      check_cached
        (Printf.sprintf "run %d: %s, hook %b, fi_always_on %b" i (engine_name engine) hooked
           fi_always_on)
        (fun () -> observe ~engine ?mask ~fi_always_on img))
    [
      (Compiled, false, false); (Compiled, true, false); (Interp, true, true);
      (Compiled, true, true); (Compiled, false, true); (Interp, false, false);
      (Compiled, true, false); (Interp, true, false); (Compiled, false, false);
    ]

(* A run started from inside another run's hook or trace callback must
   be transparent to both: the outer run observes what it observes
   without the nesting, and the nested run what it observes alone.
   (Comparing with a fresh domain alone would not do: there both runs
   would share that domain's state in the same way.) *)
let test_cache_nested_runs () =
  let outer = image src_loop and inner = image src_calls in
  let alone_outer = observe ~mask:sparse_mask outer
  and alone_inner = observe ~mask:sparse_mask inner in
  let from_hook () =
    let nested = ref None in
    let mask ~cycle ~cls ~a ~b ~result =
      if cycle >= 30 && !nested = None then nested := Some (observe ~mask:sparse_mask inner);
      sparse_mask ~cycle ~cls ~a ~b ~result
    in
    let o = observe ~mask outer in
    (o, !nested)
  in
  let o, n = from_hook () in
  if o <> alone_outer then Alcotest.fail "hook nesting: the outer run changed";
  if n <> Some alone_inner then Alcotest.fail "hook nesting: the nested run changed";
  check_cached "nested run from a hook" from_hook;
  check_cached "run after the nesting" (fun () -> observe ~mask:sparse_mask outer);
  let traced ~nest () =
    let nested = ref None and pcs = ref [] in
    let trace ~pc _ =
      pcs := pc :: !pcs;
      if nest && pc = 12 && !nested = None then nested := Some (observe ~mask:sparse_mask inner)
    in
    let mem = Memory.copy (fst outer) in
    let config = { Cpu.default_config with Cpu.trace = Some trace } in
    let stats = Cpu.run ~config mem ~entry:(snd outer) in
    ((stats, Memory.sub_string mem ~pos:0 ~len:(Memory.size mem), List.rev !pcs), !nested)
  in
  let o, n = traced ~nest:true () in
  if o <> fst (traced ~nest:false ()) then Alcotest.fail "trace nesting: the outer run changed";
  if n <> Some alone_inner then Alcotest.fail "trace nesting: the nested run changed";
  check_cached "nested run from a trace callback" (traced ~nest:true)

let test_cache_hook_raises () =
  let img = image src_loop in
  let calls = ref 0 in
  let raising ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ =
    incr calls;
    if !calls = 25 then raise Exit else 0
  in
  (match observe ~mask:raising img with
  | _ -> Alcotest.fail "the hook's exception did not reach the caller"
  | exception Exit -> ());
  check_cached "normal run after a raising hook" (fun () -> observe ~mask:sparse_mask img);
  (* the raise released the cached state: a repeat compiles no block *)
  with_obs (fun () ->
      let b0 = Sfi_obs.Counter.value c_blocks_compiled in
      ignore (observe ~mask:sparse_mask img : observed);
      Alcotest.(check int) "blocks compiled by a repeat" b0
        (Sfi_obs.Counter.value c_blocks_compiled))

let test_cache_class_counts_unshared () =
  let first = observe ~mask:sparse_mask (image src_loop) in
  let saved = Array.copy first.stats.Cpu.class_counts in
  ignore (observe ~mask:sparse_mask (image src_calls) : observed);
  Alcotest.(check (array int)) "earlier class_counts" saved first.stats.Cpu.class_counts

(* ---------- uop decode vs Encode.decode ---------- *)

(* Reference quad for a decoded instruction, written against the
   documented uop layout. Together with the random-word legality check
   below this pins [Uop.decode_into] to [Encode.decode] case by case. *)
let expected_quad ~pc ~addr_mask insn =
  let module U = Sfi_isa.Uop in
  let open Insn in
  let cls c = Op_class.index c in
  let target off = (pc + (off * 4)) land addr_mask in
  let u32 v = v land 0xFFFF_FFFF in
  match insn with
  | Add (d, a, b) -> (U.u_alu_rr + cls Op_class.Add, d, a, b)
  | Sub (d, a, b) -> (U.u_alu_rr + cls Op_class.Sub, d, a, b)
  | Mul (d, a, b) -> (U.u_alu_rr + cls Op_class.Mul, d, a, b)
  | Sll (d, a, b) -> (U.u_alu_rr + cls Op_class.Sll, d, a, b)
  | Srl (d, a, b) -> (U.u_alu_rr + cls Op_class.Srl, d, a, b)
  | Sra (d, a, b) -> (U.u_alu_rr + cls Op_class.Sra, d, a, b)
  | And (d, a, b) -> (U.u_alu_rr + cls Op_class.And_, d, a, b)
  | Or (d, a, b) -> (U.u_alu_rr + cls Op_class.Or_, d, a, b)
  | Xor (d, a, b) -> (U.u_alu_rr + cls Op_class.Xor_, d, a, b)
  | Addi (d, a, i) -> (U.u_alu_ri + cls Op_class.Add, d, a, u32 i)
  | Muli (d, a, i) -> (U.u_alu_ri + cls Op_class.Mul, d, a, u32 i)
  | Andi (d, a, i) -> (U.u_alu_ri + cls Op_class.And_, d, a, u32 i)
  | Ori (d, a, i) -> (U.u_alu_ri + cls Op_class.Or_, d, a, u32 i)
  | Xori (d, a, i) -> (U.u_alu_ri + cls Op_class.Xor_, d, a, u32 i)
  | Slli (d, a, s) -> (U.u_alu_ri + cls Op_class.Sll, d, a, s)
  | Srli (d, a, s) -> (U.u_alu_ri + cls Op_class.Srl, d, a, s)
  | Srai (d, a, s) -> (U.u_alu_ri + cls Op_class.Sra, d, a, s)
  | Movhi (d, k) -> (U.u_alu_ri + cls Op_class.Or_, d, 0, k lsl 16)
  | Sf (c, a, b) -> (U.u_sf, U.cmp_index c, a, b)
  | Sfi (c, a, i) -> (U.u_sfi, U.cmp_index c, a, u32 i)
  | J 0 -> (U.u_j_self, 0, 0, 0)
  | J off -> (U.u_j, target off, 0, 0)
  | Jal off -> (U.u_jal, target off, u32 (pc + 4), 0)
  | Jr b -> (U.u_jr, b, 0, 0)
  | Jalr b -> (U.u_jalr, b, u32 (pc + 4), 0)
  | Bf off -> (U.u_bf, target off, 0, 0)
  | Bnf off -> (U.u_bnf, target off, 0, 0)
  | Lwz (d, i, a) -> (U.u_lwz, d, u32 i, a)
  | Lhz (d, i, a) -> (U.u_lhz, d, u32 i, a)
  | Lbz (d, i, a) -> (U.u_lbz, d, u32 i, a)
  | Sw (i, a, b) -> (U.u_sw, u32 i, a, b)
  | Sh (i, a, b) -> (U.u_sh, u32 i, a, b)
  | Sb (i, a, b) -> (U.u_sb, u32 i, a, b)
  | Nop k ->
    let o =
      if k = nop_exit then U.u_nop_exit
      else if k = nop_kernel_begin then U.u_nop_kernel_begin
      else if k = nop_kernel_end then U.u_nop_kernel_end
      else U.u_nop
    in
    (o, 0, 0, 0)

let quad_of tab idx = (tab.(idx * 4), tab.((idx * 4) + 1), tab.((idx * 4) + 2), tab.((idx * 4) + 3))

let prop_uop_matches_encode =
  (* Uniform random words exercise the reject cases (most words are
     illegal); the addr_mask and idx vary so target wrapping is hit. *)
  Prop.test ~cases:2000 "decode_into mirrors Encode.decode on random words"
    (Prop.pair Prop.u32 (Prop.int ~lo:0 ~hi:255))
    (fun (w, idx) ->
      let addr_mask = 4095 in
      let tab = Array.make ((idx + 1) * 4) Sfi_isa.Uop.u_unfilled in
      Sfi_isa.Uop.decode_into tab ~idx ~addr_mask w;
      match Encode.decode w with
      | None -> quad_of tab idx = (Sfi_isa.Uop.u_illegal, 0, 0, 0)
      | Some insn -> quad_of tab idx = expected_quad ~pc:(idx * 4) ~addr_mask insn)

let prop_uop_matches_encode_legal =
  (* Encoded legal instructions cover the accept cases densely (random
     words alone hit them rarely). *)
  let gen rng =
    let r () = Prop.int ~lo:0 ~hi:31 rng in
    let i16s () = Prop.int ~lo:(-32768) ~hi:32767 rng in
    let i16u () = Prop.int ~lo:0 ~hi:65535 rng in
    let off () = Prop.int ~lo:(-64) ~hi:64 rng in
    let cmp () =
      Prop.one_of
        [ Insn.Eq; Insn.Ne; Insn.Gtu; Insn.Geu; Insn.Ltu; Insn.Leu; Insn.Gts;
          Insn.Ges; Insn.Lts; Insn.Les ]
        rng
    in
    let insn =
      match Prop.int ~lo:0 ~hi:20 rng with
      | 0 -> Insn.Add (r (), r (), r ())
      | 1 -> Insn.Sub (r (), r (), r ())
      | 2 -> Insn.Mul (r (), r (), r ())
      | 3 -> Insn.Sll (r (), r (), r ())
      | 4 -> Insn.Sra (r (), r (), r ())
      | 5 -> Insn.Addi (r (), r (), i16s ())
      | 6 -> Insn.Andi (r (), r (), i16u ())
      | 7 -> Insn.Xori (r (), r (), i16s ())
      | 8 -> Insn.Slli (r (), r (), Prop.int ~lo:0 ~hi:31 rng)
      | 9 -> Insn.Movhi (r (), i16u ())
      | 10 -> Insn.Sf (cmp (), r (), r ())
      | 11 -> Insn.Sfi (cmp (), r (), i16s ())
      | 12 -> Insn.J (off ())
      | 13 -> Insn.Jal (off ())
      | 14 -> Insn.Jr (r ())
      | 15 -> Insn.Jalr (r ())
      | 16 -> Insn.Bf (off ())
      | 17 -> Insn.Bnf (off ())
      | 18 -> Insn.Lwz (r (), i16s (), r ())
      | 19 -> Insn.Sw (i16s (), r (), r ())
      | _ -> Insn.Nop (Prop.one_of [ 0x0; 0x1; 0x10; 0x11; 0x7 ] rng)
    in
    (insn, Prop.int ~lo:0 ~hi:255 rng)
  in
  Prop.test ~cases:1000 "decode_into mirrors Encode.decode on legal encodings" gen
    (fun (insn, idx) ->
      let addr_mask = 4095 in
      let w = Encode.encode insn in
      let tab = Array.make ((idx + 1) * 4) Sfi_isa.Uop.u_unfilled in
      Sfi_isa.Uop.decode_into tab ~idx ~addr_mask w;
      match Encode.decode w with
      | None -> false (* the encoder only emits decodable words *)
      | Some insn' -> quad_of tab idx = expected_quad ~pc:(idx * 4) ~addr_mask insn')

(* ---------- random program parity sweep ---------- *)

let prop_random_program_parity =
  (* Random short programs (ALU, memory, short forward branches, an
     exit marker at the end) must retire identically. Branch targets
     stay inside the program so most runs exit; the rest watchdog —
     both outcomes must still match cycle for cycle. *)
  let gen rng =
    let n = Prop.int ~lo:3 ~hi:40 rng in
    List.init n (fun i ->
        let r () = Prop.int ~lo:0 ~hi:7 rng in
        match Prop.int ~lo:0 ~hi:9 rng with
        | 0 -> Insn.Add (r (), r (), r ())
        | 1 -> Insn.Mul (r (), r (), r ())
        | 2 -> Insn.Addi (r (), r (), Prop.int ~lo:(-8) ~hi:8 rng)
        | 3 -> Insn.Lwz (r (), 0x200, 0)
        | 4 -> Insn.Sw (0x200, 0, r ())
        | 5 -> Insn.Sfi (Insn.Ltu, r (), Prop.int ~lo:0 ~hi:8 rng)
        | 6 -> Insn.Bf (Prop.int ~lo:1 ~hi:(max 1 (n - i)) rng)
        | 7 -> Insn.Xor (r (), r (), r ())
        | 8 -> Insn.Lbz (r (), 0x201, 0)
        | _ -> Insn.Sh (0x202, 0, r ()))
    @ [ Insn.Nop Insn.nop_exit ]
  in
  Prop.test ~cases:300 "random programs retire identically" gen (fun insns ->
      let config = { Cpu.default_config with Cpu.max_cycles = 5_000 } in
      let si, _ = run_insns Interp ~config insns in
      let sc, _ = run_insns Compiled ~config insns in
      si = sc)

let () =
  Alcotest.run "cpu_engine"
    [
      ( "parity",
        [
          Alcotest.test_case "kernels fault-free" `Quick test_kernel_parity;
          Alcotest.test_case "fault-hook stream" `Quick test_hook_stream_parity;
          Alcotest.test_case "self-modifying loop" `Quick test_selfmod_parity;
          Alcotest.test_case "store into own block" `Quick test_selfmod_store_into_own_block;
          Alcotest.test_case "trace ordering" `Quick test_trace_order_parity;
          Alcotest.test_case "illegal not traced" `Quick test_trace_illegal_not_traced;
          Alcotest.test_case "watchdog outcomes" `Quick test_watchdog_parity;
          Alcotest.test_case "watchdog mid-block" `Quick test_watchdog_mid_block;
          Alcotest.test_case "trap outcomes" `Quick test_trap_parity;
          Alcotest.test_case "fi toggle mid-block" `Quick test_fi_toggle_mid_block;
          prop_random_program_parity;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady state" `Quick test_steady_state_allocation;
          Alcotest.test_case "decode_into" `Quick test_decode_into_allocation_free;
          Alcotest.test_case "repeated run" `Quick test_repeated_run_allocation;
          Alcotest.test_case "trial memory reused" `Quick test_trial_memory_reused;
        ] );
      ( "code cache",
        [
          Alcotest.test_case "programs back to back" `Quick test_cache_back_to_back;
          Alcotest.test_case "self-modifying, then pristine" `Quick
            test_cache_selfmod_then_pristine;
          Alcotest.test_case "code rewritten between runs" `Quick test_cache_code_rewritten;
          Alcotest.test_case "faulted store into undecoded word" `Quick
            test_cache_faulted_store_undecoded;
          Alcotest.test_case "watchdog budget shrinking" `Quick test_cache_watchdog_shrinking;
          Alcotest.test_case "alternating configs" `Quick test_cache_alternating_configs;
          Alcotest.test_case "nested runs" `Quick test_cache_nested_runs;
          Alcotest.test_case "hook raises" `Quick test_cache_hook_raises;
          Alcotest.test_case "class_counts unshared" `Quick test_cache_class_counts_unshared;
        ] );
      ( "uop decoder",
        [ prop_uop_matches_encode; prop_uop_matches_encode_legal ] );
    ]
