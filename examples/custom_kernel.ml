(* Bring your own kernel: write an OR1K-subset assembly program, run it on
   the cycle-accurate ISS under statistical fault injection, and measure
   its resilience — the workflow a user of this library follows for a new
   workload.

   The kernel below computes a 32-term dot product and a checksum. The
   FI window markers (l.nop 0x10 / 0x11) delimit the studied region and
   l.nop 0x1 exits, mirroring the or1ksim conventions the paper uses.

     dune exec examples/custom_kernel.exe *)

open Sfi_util
open Sfi_core

let kernel_source ~xs ~ys =
  Printf.sprintf
    {|# dot product of two 32-element vectors
        .entry start
start:
        l.movhi r2, hi(vec_x)
        l.ori   r2, r2, lo(vec_x)
        l.movhi r3, hi(vec_y)
        l.ori   r3, r3, lo(vec_y)
        l.addi  r4, r0, 32          # elements
        l.addi  r5, r0, 0           # accumulator
        l.nop   0x10                # FI window opens
loop:
        l.sfeqi r4, 0
        l.bf    done
        l.lwz   r6, 0(r2)
        l.lwz   r7, 0(r3)
        l.mul   r8, r6, r7
        l.add   r5, r5, r8
        l.addi  r2, r2, 4
        l.addi  r3, r3, 4
        l.addi  r4, r4, -1
        l.j     loop
done:
        l.movhi r9, hi(result)
        l.ori   r9, r9, lo(result)
        l.sw    0(r9), r5
        l.nop   0x11                # FI window closes
        l.nop   0x1
result: .word 0
vec_x:
%svec_y:
%s|}
    (Sfi_kernels.Bench.format_word_data xs)
    (Sfi_kernels.Bench.format_word_data ys)

let () =
  (* Inputs and the expected result, computed with the same wrap-around
     semantics the core uses. *)
  let rng = Rng.of_int 2024 in
  let xs = Array.init 32 (fun _ -> Rng.bits32 rng land 0xFFFF) in
  let ys = Array.init 32 (fun _ -> Rng.bits32 rng land 0xFFFF) in
  let expected =
    Array.fold_left (fun acc (x, y) -> U32.add acc (U32.mul x y)) 0
      (Array.map2 (fun x y -> (x, y)) xs ys)
  in
  let program = Sfi_isa.Asm.assemble_exn (kernel_source ~xs ~ys) in
  let result_addr = Sfi_isa.Program.symbol program "result" in

  (* Fault-free sanity run. *)
  let mem = Sfi_sim.Memory.create ~size:65536 in
  Sfi_sim.Memory.load_program mem program;
  let stats = Sfi_sim.Cpu.run mem ~entry:program.Sfi_isa.Program.entry in
  assert (stats.Sfi_sim.Cpu.outcome = Sfi_sim.Cpu.Exited);
  assert (Sfi_sim.Memory.read_u32 mem result_addr = expected);
  Printf.printf "fault-free: %d cycles, result %s (correct)\n%!" stats.Sfi_sim.Cpu.cycles
    (U32.to_hex expected);

  (* Under model C: how often is the dot product still exact, and how far
     off is it otherwise? The kernel is mul-heavy, so it degrades near the
     multiplier's dynamic limit, well before an add-only kernel would. *)
  let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 1500 } () in
  let model = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  Printf.printf "\n%-9s %-9s %-9s %s\n" "f [MHz]" "exited" "exact" "mean |error| of exits";
  List.iter
    (fun freq_mhz ->
      let trials = 60 in
      let root = Rng.of_int 99 in
      let exits = ref 0 and exact = ref 0 and errs = ref [] in
      for _ = 1 to trials do
        let rng = Rng.split root in
        let injector = Sfi_fi.Injector.create ~model ~freq_mhz ~rng () in
        let mem = Sfi_sim.Memory.create ~size:65536 in
        Sfi_sim.Memory.load_program mem program;
        let config =
          {
            Sfi_sim.Cpu.fault_hook = Some (Sfi_fi.Injector.hook injector);
            Sfi_sim.Cpu.max_cycles = 100_000;
          }
        in
        let stats = Sfi_sim.Cpu.run ~config mem ~entry:program.Sfi_isa.Program.entry in
        if stats.Sfi_sim.Cpu.outcome = Sfi_sim.Cpu.Exited then begin
          incr exits;
          let got = Sfi_sim.Memory.read_u32 mem result_addr in
          if got = expected then incr exact
          else errs := abs_float (float_of_int got -. float_of_int expected) :: !errs
        end
      done;
      let mean_err =
        match !errs with
        | [] -> 0.
        | e -> List.fold_left ( +. ) 0. e /. float_of_int (List.length e)
      in
      Printf.printf "%-9.0f %-9s %-9s %.3g\n%!" freq_mhz
        (Printf.sprintf "%d/%d" !exits trials)
        (Printf.sprintf "%d/%d" !exact trials)
        mean_err)
    [ 690.; 710.; 730.; 750.; 780.; 820.; 880. ]
