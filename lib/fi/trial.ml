open Sfi_sim
open Sfi_kernels

type t = {
  finished : bool;
  correct : bool;
  fault_bits : int;
  fault_events : int;
  kernel_cycles : int;
  error : float;
}

let make ~(bench : Bench.t) ~(stats : Cpu.stats) ~output ~fault_bits ~fault_events =
  let finished = stats.Cpu.outcome = Cpu.Exited in
  let correct = finished && output = bench.Bench.golden in
  let error =
    if finished then bench.Bench.metric ~expected:bench.Bench.golden ~actual:output
    else nan
  in
  {
    finished;
    correct;
    fault_bits;
    fault_events;
    kernel_cycles = max 1 stats.Cpu.kernel_cycles;
    error;
  }

(* Per-domain trial memory: the pristine image of the program this
   domain last ran trials of, built once, and a work buffer each trial
   resets from it with one blit instead of allocating and loading a
   fresh image. [busy] catches a trial started from inside another
   trial on the same domain, which gets a memory of its own. *)
type trial_memory = {
  program : Sfi_isa.Program.t;
  pristine : Memory.t;
  work : Memory.t;
  mutable busy : bool;
}

let trial_memory : trial_memory option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_trial_memory (bench : Bench.t) f =
  let slot = Domain.DLS.get trial_memory in
  let tm =
    match !slot with
    | Some tm
      when tm.program == bench.Bench.program
           && Memory.size tm.pristine = bench.Bench.mem_size ->
      tm
    | _ ->
      let pristine = Bench.fresh_memory bench in
      let tm =
        { program = bench.Bench.program; pristine; work = Memory.copy pristine; busy = false }
      in
      slot := Some tm;
      tm
  in
  if tm.busy then f (Bench.fresh_memory bench)
  else begin
    tm.busy <- true;
    Memory.blit ~src:tm.pristine ~dst:tm.work;
    match f tm.work with
    | r ->
      tm.busy <- false;
      r
    | exception e ->
      tm.busy <- false;
      raise e
  end

let simulate ~(bench : Bench.t) ~injector ~budget ~resume prepare =
  with_trial_memory bench @@ fun mem ->
  prepare mem;
  let config =
    { Cpu.max_cycles = budget; Cpu.fault_hook = Some (Injector.hook injector) }
  in
  let stats = Cpu.run ~config ~resume mem ~entry:bench.Bench.program.Sfi_isa.Program.entry in
  let output = if stats.Cpu.outcome = Cpu.Exited then Bench.read_output bench mem else [||] in
  ( stats,
    make ~bench ~stats ~output ~fault_bits:(Injector.fault_bits injector)
      ~fault_events:(Injector.fault_events injector) )
