(** One Monte-Carlo trial: its result record and the ISS run behind it.

    Every trial is produced by {!Fastforward.run_trial} through this
    module — an elided one with {!make} from the reference run's stats,
    a restored one with {!simulate} from a snapshot — so a result is
    assembled in exactly one place. *)

open Sfi_sim
open Sfi_kernels

type t = {
  finished : bool;
  correct : bool;
  fault_bits : int;
  fault_events : int;
  kernel_cycles : int;
  error : float;  (** output metric; [nan] when the run did not finish *)
}

val make :
  bench:Bench.t ->
  stats:Cpu.stats ->
  output:Sfi_util.U32.t array ->
  fault_bits:int ->
  fault_events:int ->
  t
(** The trial a run with these stats and output stands for: [output] is
    compared against the benchmark's golden output only when the run
    exited. *)

val simulate :
  bench:Bench.t ->
  injector:Injector.t ->
  budget:int ->
  resume:Cpu.snapshot ->
  (Memory.t -> unit) ->
  Cpu.stats * t
(** [simulate ~bench ~injector ~budget ~resume prepare] runs one trial on
    this domain's trial memory, which is reset to the benchmark's image
    first: [prepare] finishes the pre-run state (a snapshot's memory
    pages, and at cycle 0 a model's per-trial state hook), then the ISS
    runs from [resume] with [injector]'s hook under the absolute cycle
    watchdog [budget]. Returns the run's stats with its {!make}
    result. *)
