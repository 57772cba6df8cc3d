(** The scalar characterization kernel: one {!Dta} cycle per trial.

    The reference the packed production kernel
    ([Sfi_timing.Characterize.run]) is checked against. For the same
    arguments it must return a bit-identical database: the per-class
    RNG streams are split from [seed] in class order exactly as the
    production kernel splits them, and each class's trials form one
    chain on one DTA instance, every trial launched from the previous
    trial's settled state. Serial and uncached. *)

open Sfi_netlist
open Sfi_timing

val run :
  ?cycles:int ->
  ?seed:int ->
  ?setup_ps:float ->
  ?vdd_model:Vdd_model.t ->
  ?lib:Cell_lib.t ->
  ?profile_for:(Sfi_util.Op_class.t -> Characterize.operand_profile) ->
  vdd:float ->
  Alu.t ->
  Characterize.t
(** Same arguments and defaults as [Characterize.run], without the
    job count. A functional mismatch between the DTA's settled result
    and [Op_class.apply] raises [Failure]. *)
