open Sfi_netlist
open Sfi_timing

(* Hot-path representation notes.

   Event times live in a scaled domain: every gate delay is multiplied by
   the exact power of two 2^-32 once at [create], and all event-time sums
   are computed on the scaled values. Because scaling by a power of two
   only shifts the exponent, scaled sums round exactly like the unscaled
   sums would, so settle times (descaled on read) are bit-identical to
   computing in plain picoseconds. Scaled times are < 2.0 for any
   realistic circuit (up to 2^33 ps), so their IEEE-754 bit patterns fit
   OCaml's 63-bit int and order like the floats themselves — that int is
   the heap key, making the whole push/pop/drain loop allocation-free.

   Per-cycle state (settle times, scheduled-event stamps) is invalidated
   with generation counters instead of O(n_nets) clears, so cycle cost
   tracks the event count, not the circuit size. *)

type t = {
  circuit : Circuit.t;
  delay : float array; (* per gate, ps at the chosen voltage, × 2^-32 *)
  values : bool array; (* per net *)
  settle : float array; (* per net, scaled; valid iff settle_gen matches *)
  settle_gen : int array; (* per net, generation of last settle write *)
  sched_key : int array; (* per gate, key of last scheduled evaluation *)
  sched_gen : int array; (* per gate, generation of that key *)
  mutable gen : int; (* current cycle generation *)
  heap : Min_heap.t;
  mutable staged : int array; (* packed (net lsl 1) lor bit *)
  mutable staged_n : int;
  mutable events : int;
  mutable settles : int; (* value-changing events (all cycles) *)
  mutable coalesced : int; (* same-instant evaluations deduped *)
  is_input : bool array;
}

(* Observability: the hot loops accumulate into the plain int fields
   above (one predictable add, no flag test); [cycle] flushes the deltas
   to the registry once per generation bump. All four counts are pure
   functions of the stimulus — but how much stimulus the DTA sees at all
   depends on whether the persistent characterization cache served the
   caller from disk, so they count work performed, not work requested:
   [~det:false], excluded from the determinism signature. *)
let obs_events = Sfi_obs.Counter.make ~det:false "dta.events"

let obs_settles = Sfi_obs.Counter.make ~det:false "dta.settles"

let obs_coalesced = Sfi_obs.Counter.make ~det:false "dta.coalesced"

let obs_cycles = Sfi_obs.Counter.make ~det:false "dta.cycles"

let obs_events_per_cycle = Sfi_obs.Hist.make ~det:false "dta.events_per_cycle"

let create ?(vdd = Vdd_model.nominal_voltage) ?(vdd_model = Vdd_model.default)
    ?(lib = Cell_lib.default) (c : Circuit.t) =
  let kind_factor =
    let table = List.map (fun k -> (k, Vdd_model.derate_kind vdd_model lib k vdd)) Cell.all in
    fun kind -> List.assq kind table
  in
  let delay =
    Array.mapi
      (fun i (g : Circuit.gate) ->
        c.Circuit.base_delay.(i) *. kind_factor g.Circuit.kind *. 0x1p-32)
      c.Circuit.gates
  in
  let values = Array.make c.Circuit.n_nets false in
  (match c.Circuit.const_true with Some n -> values.(n) <- true | None -> ());
  (* Settle the circuit for the all-low input state using a zero-delay
     pass; subsequent cycles start from this stable state. *)
  Logic_sim.eval_all_gates c values;
  let is_input = Array.make c.Circuit.n_nets false in
  Array.iter (fun (_, n) -> is_input.(n) <- true) c.Circuit.pis;
  {
    circuit = c;
    delay;
    values;
    settle = Array.make c.Circuit.n_nets 0.;
    settle_gen = Array.make c.Circuit.n_nets 0;
    sched_key = Array.make (Array.length c.Circuit.gates) 0;
    sched_gen = Array.make (Array.length c.Circuit.gates) 0;
    gen = 0;
    heap = Min_heap.create ~capacity:1024 ();
    staged = Array.make 64 0;
    staged_n = 0;
    events = 0;
    settles = 0;
    coalesced = 0;
    is_input;
  }

let set_input t net v =
  if net < 0 || net >= Array.length t.values || not t.is_input.(net) then
    invalid_arg "Dta.set_input: not a primary input";
  if t.staged_n = Array.length t.staged then begin
    let ns = Array.make (2 * Array.length t.staged) 0 in
    Array.blit t.staged 0 ns 0 t.staged_n;
    t.staged <- ns
  end;
  t.staged.(t.staged_n) <- (net lsl 1) lor (if v then 1 else 0);
  t.staged_n <- t.staged_n + 1

let set_input_vec t nets word =
  for i = 0 to Array.length nets - 1 do
    set_input t nets.(i) ((word lsr i) land 1 = 1)
  done

(* Schedule an evaluation of every reader of [net] at (trigger time +
   reader delay), where [time_key] is the trigger time's heap key. A
   per-gate (generation, key) stamp coalesces duplicate same-time
   evaluations: a gate whose k inputs toggle at the same instant is
   evaluated once, not k times. Per gate the scheduled keys are
   nondecreasing over a cycle (trigger times pop in order and the delay is
   constant), so comparing against the last stamp catches every
   duplicate. *)
let schedule_readers t net time_key =
  let c = t.circuit in
  let off = c.Circuit.reader_off in
  let rg = c.Circuit.reader_gate in
  let time = Int64.float_of_bits (Int64.of_int time_key) in
  let hi = Array.unsafe_get off (net + 1) in
  for j = Array.unsafe_get off net to hi - 1 do
    let gi = Array.unsafe_get rg j in
    let key =
      Int64.to_int (Int64.bits_of_float (time +. Array.unsafe_get t.delay gi))
    in
    if
      not
        (Array.unsafe_get t.sched_gen gi = t.gen
        && Array.unsafe_get t.sched_key gi = key)
    then begin
      Array.unsafe_set t.sched_gen gi t.gen;
      Array.unsafe_set t.sched_key gi key;
      Min_heap.push_key t.heap key gi
    end
    else t.coalesced <- t.coalesced + 1
  done

let rec drain t =
  let gi = Min_heap.pop_unsafe t.heap in
  if gi >= 0 then begin
    t.events <- t.events + 1;
    let key = Min_heap.popped_key t.heap in
    let out_net = Array.unsafe_get t.circuit.Circuit.gate_out gi in
    let v = Logic_sim.eval_gate t.circuit t.values gi in
    if Array.unsafe_get t.values out_net <> v then begin
      t.settles <- t.settles + 1;
      Array.unsafe_set t.values out_net v;
      Array.unsafe_set t.settle out_net
        (Int64.float_of_bits (Int64.of_int key));
      Array.unsafe_set t.settle_gen out_net t.gen;
      schedule_readers t out_net key
    end;
    drain t
  end

let cycle t =
  t.gen <- t.gen + 1;
  let events0 = t.events and settles0 = t.settles and coalesced0 = t.coalesced in
  (* Launch staged input transitions at t = 0 (heap key 0 = bits of 0.0). *)
  for i = 0 to t.staged_n - 1 do
    let s = Array.unsafe_get t.staged i in
    let net = s lsr 1 in
    let v = s land 1 = 1 in
    if Array.unsafe_get t.values net <> v then begin
      Array.unsafe_set t.values net v;
      schedule_readers t net 0
    end
  done;
  t.staged_n <- 0;
  drain t;
  if Sfi_obs.enabled () then begin
    Sfi_obs.Counter.incr obs_cycles;
    Sfi_obs.Counter.add obs_events (t.events - events0);
    Sfi_obs.Counter.add obs_settles (t.settles - settles0);
    Sfi_obs.Counter.add obs_coalesced (t.coalesced - coalesced0);
    Sfi_obs.Hist.observe obs_events_per_cycle (t.events - events0)
  end

let value t net = t.values.(net)

let read_vec t nets =
  let acc = ref 0 in
  for i = 0 to Array.length nets - 1 do
    if t.values.(nets.(i)) then acc := !acc lor (1 lsl i)
  done;
  !acc

let settle_time t net =
  if t.settle_gen.(net) = t.gen then t.settle.(net) *. 0x1p32 else 0.

let settles_count t = t.settles

let coalesced_count t = t.coalesced

let check_against t logic nets =
  Array.for_all (fun n -> value t n = Logic_sim.value logic n) nets
