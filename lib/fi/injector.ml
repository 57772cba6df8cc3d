open Sfi_util

type t = {
  inst : Model.instance;
  mutable bits : int;
  mutable events : int;
  by_class : int array;
  obs_on : bool; (* report to the obs registry (off for timing loops) *)
  fault_counter : Sfi_obs.Counter.t; (* faults committed, per model key *)
}

(* Observability. The injector's *outcome* — faults committed and their
   bit widths — is a pure function of the requested work and stays
   deterministic ([injector.faults.<key>], [fault_bits_per_event]).
   [attempts.<class>] counts hook invocations per operation class; it is
   [~det:false] because fast-forward elides fault-free work entirely
   (the hook never runs for skipped prefixes/trials) — identical
   campaign results keep identical det signatures whether the work was
   performed or skipped. The models' own work counters
   ([injector.skip_table_hits] and friends) live in {!Model}. *)
let obs_attempts =
  Array.of_list
    (List.map
       (fun c -> Sfi_obs.Counter.make ~det:false ("injector.attempts." ^ Op_class.name c))
       Op_class.all)

let obs_fault_bits = Sfi_obs.Hist.make "injector.fault_bits_per_event"

let fault_counter_for model =
  Sfi_obs.Counter.make ("injector.faults." ^ Model.key model)

let obs_attempt cls =
  if Sfi_obs.enabled () then
    Sfi_obs.Counter.incr (Array.unsafe_get obs_attempts (Op_class.index cls))

let record t cls n =
  if n > 0 then begin
    t.bits <- t.bits + n;
    t.events <- t.events + 1;
    (match cls with
    | Some c ->
      let i = Op_class.index c in
      t.by_class.(i) <- t.by_class.(i) + n
    | None -> ());
    if t.obs_on && Sfi_obs.enabled () then begin
      Sfi_obs.Counter.add t.fault_counter n;
      Sfi_obs.Hist.observe obs_fault_bits n
    end
  end

let create ?(count_obs = true) ~model ~freq_mhz ~rng () =
  {
    inst = Model.instantiate model ~count_obs ~freq_mhz ~rng;
    bits = 0;
    events = 0;
    by_class = Array.make Op_class.count 0;
    obs_on = count_obs;
    fault_counter = fault_counter_for model;
  }

let hook t : Sfi_sim.Cpu.fault_hook =
 fun ~cycle ~cls ~a ~b ~result ->
  if t.obs_on then obs_attempt cls;
  let mask = t.inst.Model.sample ~cycle ~cls ~a ~b ~result in
  if mask <> 0 then record t (Some cls) (U32.popcount mask);
  mask

let trial_start t mem =
  match t.inst.Model.trial_start with
  | None -> 0
  | Some edit ->
    let n = edit mem in
    if n > 0 then record t None n;
    n

let fault_bits t = t.bits

let fault_events t = t.events

let fault_bits_by_class t = Array.copy t.by_class

let cannot_inject t = t.inst.Model.cannot_inject
