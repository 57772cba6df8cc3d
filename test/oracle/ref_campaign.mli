(** The full-replay campaign point: every trial simulated from cycle 0.

    The reference the production campaign engine
    ([Sfi_fi.Campaign], which fast-forwards its trials) is checked
    against. For the same arguments it must return a bit-identical point
    and trial array: the per-trial RNG streams are split from [seed]
    exactly as [Campaign] splits them, a point whose injector proves no
    fault can occur is one representative run, and every trial replays
    the whole program from a freshly loaded image through the public
    [Injector], [Cpu] and [Bench] calls under a watchdog of 3x the
    fault-free cycle count (+64k slack). Serial, uncached and silent in
    the obs registry's injector families. *)

open Sfi_kernels
open Sfi_fi

val run_detailed :
  trials:int ->
  seed:int ->
  bench:Bench.t ->
  model:Model.t ->
  freq_mhz:float ->
  Campaign.point * Campaign.trial array
(** What [Campaign.run_detailed] returns under a [Fixed trials] spec
    with root seed [seed] (or any spec that runs exactly [trials]
    trials, such as an adaptive one that never converges). *)

val run :
  trials:int -> seed:int -> bench:Bench.t -> model:Model.t -> freq_mhz:float -> Campaign.point
(** The point of {!run_detailed}. *)
