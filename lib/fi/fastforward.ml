open Sfi_util
open Sfi_sim
open Sfi_kernels

(* ZOFI-style fault-free fast-forward (DESIGN.md §13).

   A trial's execution is deterministic and identical to the fault-free
   reference run until its first injected fault, so until then its hooks
   fire at the recorded cycles. The hooks of the models served here
   depend only on the instruction class, the cycle number and the
   trial's private RNG stream, never on operand values, so the whole
   fault decision sequence of a trial is a pure function of (reference
   hook-call schedule, trial RNG stream). That makes two eliminations
   sound:

   - {e analytic trials}: replay the recorded schedule against the
     trial's RNG (the "probe"); if no hook returns a nonzero mask, the
     trial is provably the reference run and its result is assembled
     from the cached reference stats and outputs without touching the
     ISS at all;
   - {e suffix trials}: otherwise, restore the sparse snapshot nearest
     before the first-fault cycle and simulate only the suffix, with the
     real injector seeded from the RNG state captured at that snapshot
     boundary, so the suffix re-fires the boundary-to-fault hooks with
     the same draws (masks 0), injects the same first fault, and then
     diverges exactly as the full run would.

   Bit-identity hinges on draw accounting: the probe consumes exactly
   the draws the full run would, and a snapshot boundary at cycle [s]
   partitions the hook schedule exactly — each instruction fires at most
   one hook at its post-stall EX cycle and the cycle counter is strictly
   increasing across instructions, so hooks of instructions executed
   before the (pre-instruction) snapshot have cycle < s and all later
   ones have cycle >= s. *)

(* Work accounting. Everything here measures elided or replayed work,
   not results — det:false like the cache/cpu/injector work families, so
   a fast-forwarded point keeps the det signature of its full replay. *)
let obs_elided = Sfi_obs.Counter.make ~det:false "fastforward.trials_elided"

let obs_restores = Sfi_obs.Counter.make ~det:false "fastforward.restores"

let obs_suffix_cycles = Sfi_obs.Counter.make ~det:false "fastforward.suffix_cycles"

let obs_cycles_elided = Sfi_obs.Counter.make ~det:false "fastforward.cycles_elided"

let obs_traces = Sfi_obs.Counter.make ~det:false "fastforward.traces_recorded"

let obs_snapshots = Sfi_obs.Counter.make ~det:false "fastforward.snapshots"

(* Memory deltas are tracked at this granularity: small enough that a
   kernel's working set stays sparse against a 64 KiB image, large
   enough that the per-snapshot diff is a handful of memcmps. *)
let page_size = 256

type snap = {
  state : Cpu.snapshot;
  pages : (int * string) array;
      (* pages changed since the previous snapshot, ascending index *)
}

type trace = {
  stride : int;
  trace_page_size : int;
  snaps : snap array; (* strictly increasing snapshot cycles, snaps.(0) at cycle 0 *)
  sched_cycle : int array; (* hook-call cycles, strictly increasing *)
  sched_cls : int array; (* Op_class.index per hook call *)
  ref_stats : Cpu.stats;
  ref_output : U32.t array;
}

(* The snapshot stride: finer strides shrink the replayed
   prefix-to-fault window of suffix trials but grow the trace (and its
   recording cost); this one aims at ~128 snapshots per program,
   which keeps the average replayed window under 0.5 % of the program
   while a 64 KiB image yields traces of at most a few MiB. *)
let stride_for ~ref_cycles = max 64 (ref_cycles / 128)

(* Dense class list for decoding [sched_cls] (Op_class has index/all but
   no inverse). *)
let class_of_index = Array.of_list Op_class.all

(* growable int buffer for the hook schedule *)
type ibuf = { mutable buf : int array; mutable len : int }

let ibuf () = { buf = Array.make 4096 0; len = 0 }

let ipush b v =
  if b.len = Array.length b.buf then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.buf 0 bigger 0 b.len;
    b.buf <- bigger
  end;
  b.buf.(b.len) <- v;
  b.len <- b.len + 1

let icontents b = Array.sub b.buf 0 b.len

(* ---------- recording ---------- *)

exception No_trace

(* One interpreter pass ([Cpu.run_recording]) over the fault-free
   reference run, capturing a snapshot + dirty-page delta at every
   stride boundary and the full hook-call schedule (the recording hook
   returns mask 0, so the run IS the reference run). Raises [No_trace]
   when the reference run does not exit cleanly — fast-forward then
   falls back to full replay for this benchmark. *)
let record ~bench ~stride =
  let mem = Bench.fresh_memory bench in
  let shadow = Memory.copy mem in
  let n_pages = (Memory.size mem + page_size - 1) / page_size in
  let snaps = ref [] in
  let n_snaps = ref 0 in
  let cycles = ibuf () and classes = ibuf () in
  let hook ~cycle ~cls ~a:_ ~b:_ ~result:_ =
    ipush cycles cycle;
    ipush classes (Op_class.index cls);
    0
  in
  let on_snapshot state =
    let dirty = ref [] in
    for p = n_pages - 1 downto 0 do
      let pos = p * page_size in
      if not (Memory.equal_range mem shadow ~pos ~len:page_size) then begin
        let s = Memory.sub_string mem ~pos ~len:page_size in
        Memory.blit_from_string shadow ~pos s;
        dirty := (p, s) :: !dirty
      end
    done;
    snaps := { state; pages = Array.of_list !dirty } :: !snaps;
    incr n_snaps
  in
  let config = { Cpu.default_config with Cpu.fault_hook = Some hook } in
  let stats =
    Cpu.run_recording ~config ~stride ~on_snapshot mem
      ~entry:bench.Bench.program.Sfi_isa.Program.entry
  in
  Sfi_obs.Counter.incr obs_traces;
  Sfi_obs.Counter.add obs_snapshots !n_snaps;
  if stats.Cpu.outcome <> Cpu.Exited then raise No_trace;
  {
    stride;
    trace_page_size = page_size;
    snaps = Array.of_list (List.rev !snaps);
    sched_cycle = icontents cycles;
    sched_cls = icontents classes;
    ref_stats = stats;
    ref_output = Bench.read_output bench mem;
  }

(* ---------- the sfi-snap/1 cache codec ---------- *)

(* Cheap post-load invariants per the cache contract (the namespace and
   fingerprint already bind the contents; this guards decode of a
   foreign value marshalled under the same key by accident). *)
let plausible t =
  t.stride > 0
  && t.trace_page_size = page_size
  && Array.length t.snaps > 0
  && Array.length t.sched_cycle = Array.length t.sched_cls
  && t.ref_stats.Cpu.outcome = Cpu.Exited

(* Traces per content key: the benchmark image and pipeline constants
   (the inputs that determine reference cycles) plus the stride and page
   geometry — never the benchmark's name, since same-named benchmarks
   built from other seeds or sizes must not replay each other's
   snapshots. Computed once per process; only a recorded trace is
   stored on disk, a reference run that does not exit is remembered in
   process as [None]. *)
let traces : trace option Sfi_cache.Once.t = Sfi_cache.Once.create ()

let trace_for ~(bench : Bench.t) ~stride =
  let fp = Sfi_cache.Fingerprint.create "sfi-snap/1" in
  Bench.add_fingerprint bench fp;
  Sfi_cache.Fingerprint.add_int fp stride;
  Sfi_cache.Fingerprint.add_int fp page_size;
  let key = Sfi_cache.Fingerprint.hex fp in
  Sfi_cache.Once.get traces ~key (fun () ->
      match
        Sfi_cache.memo ~namespace:"snap" ~key ~valid:plausible (fun () -> record ~bench ~stride)
      with
      | t -> Some t
      | exception No_trace -> None)

(* The two counted fallbacks to full replay: models the probe cannot
   soundly replay, and benchmarks whose reference run does not exit.
   How the trace was (not) obtained is elided-work metadata, det:false
   like the rest of the family. *)
let obs_model_unsupported =
  Sfi_obs.Counter.make ~det:false "fastforward.model_unsupported"

let obs_no_trace = Sfi_obs.Counter.make ~det:false "fastforward.no_trace"

let trace_for_model ~bench ~model ~stride =
  if Model.cycle_dependent model then begin
    Sfi_obs.Counter.incr obs_model_unsupported;
    None
  end
  else begin
    let t = trace_for ~bench ~stride in
    if Option.is_none t then Sfi_obs.Counter.incr obs_no_trace;
    t
  end

(* ---------- the fast-forwarded trial ---------- *)

(* Per-class-index gaussian-skip table for a probe injector: [k >= 0]
   means a hook call for that class is a provable no-op consuming
   exactly [k] gaussians, [-1] means it must actually run. Consecutive
   skippable schedule entries are batched into one
   [Rng.skip_gaussians] jump — draw-for-draw equivalent, minus the
   per-call threshold math and transcendentals. *)
let skip_table probe =
  Array.map
    (fun cls ->
      match Injector.skippable_gaussians probe cls with Some k -> k | None -> -1)
    class_of_index

(* The probe: a silent injector walking the recorded schedule against
   a copy of the trial stream, each call with its recorded cycle and
   zero operands. Every hook call consumes exactly the draws the full
   run's corresponding call would and, up to the first fault, sees the
   cycle the full run's call sees (the models ignore operands), so the
   first nonzero mask found here IS the trial's first fault, and the
   RNG copies taken at snapshot boundaries are exactly the stream
   states a full run would carry into those cycles. [fault_at] is the
   first fault's schedule index ([-1] for a provably fault-free trial);
   [boundary.(j)] holds the stream state at snapshot [j] for every
   [j < crossed]. *)
type probe = { fault_at : int; crossed : int; boundary : Rng.t array }

let probe ~model ~freq_mhz ~trace ~rng =
  let probe_rng = Rng.copy rng in
  let probe = Injector.create ~count_obs:false ~model ~freq_mhz ~rng:probe_rng () in
  let hook = Injector.hook probe in
  let skip_tab = skip_table probe in
  let pending = ref 0 in
  let flush () =
    if !pending > 0 then begin
      Rng.skip_gaussians probe_rng !pending;
      pending := 0
    end
  in
  let n = Array.length trace.sched_cycle in
  let snaps = trace.snaps in
  let n_snaps = Array.length snaps in
  let boundary = Array.make n_snaps rng in
  let next_snap = ref 0 in
  let fault_at = ref (-1) in
  let i = ref 0 in
  while !fault_at < 0 && !i < n do
    let c = Array.unsafe_get trace.sched_cycle !i in
    (* Schedule cycles are strictly increasing, so every boundary with
       snapshot cycle <= c is crossed before this entry's draws: save
       the stream state there. Boundaries are checked for every entry
       before it can join the pending batch, so a boundary crossed here
       was crossed by no earlier entry — everything pending has cycle
       below the boundary and must be consumed before the copy. *)
    while
      !next_snap < n_snaps
      && Cpu.snapshot_cycle (Array.unsafe_get snaps !next_snap).state <= c
    do
      flush ();
      boundary.(!next_snap) <- Rng.copy probe_rng;
      incr next_snap
    done;
    let ci = Array.unsafe_get trace.sched_cls !i in
    let k = Array.unsafe_get skip_tab ci in
    if k >= 0 then begin
      pending := !pending + k;
      incr i
    end
    else begin
      flush ();
      let cls = Array.unsafe_get class_of_index ci in
      if hook ~cycle:c ~cls ~a:0 ~b:0 ~result:0 <> 0 then fault_at := !i else incr i
    end
  done;
  { fault_at = !fault_at; crossed = !next_snap; boundary }

let first_fault ~model ~freq_mhz ~trace ~rng =
  let p = probe ~model ~freq_mhz ~trace ~rng in
  if p.fault_at < 0 then None
  else Some (trace.sched_cycle.(p.fault_at), class_of_index.(trace.sched_cls.(p.fault_at)))

let run_trial ~(bench : Bench.t) ~model ~freq_mhz ~budget ~trace ~rng =
  let p = probe ~model ~freq_mhz ~trace ~rng in
  if p.fault_at < 0 then begin
    (* Provably fault-free: the trial is the reference run. *)
    Sfi_obs.Counter.incr obs_elided;
    Sfi_obs.Counter.add obs_cycles_elided trace.ref_stats.Cpu.cycles;
    Trial.make ~bench ~stats:trace.ref_stats ~output:trace.ref_output ~fault_bits:0
      ~fault_events:0
  end
  else begin
    (* First fault at schedule entry [p.fault_at]: restore the nearest
       preceding snapshot — [snaps.(0)] sits at cycle 0, so [j >= 0] —
       and simulate the suffix with a real injector seeded from the
       boundary stream state. The replayed window between the snapshot
       and the fault re-fires its hooks with the same draws (all mask
       0, all under the re-armed fi_on window the snapshot carries),
       then injects the same first fault and runs the divergent tail
       under the same absolute cycle budget as a full run. *)
    let snaps = trace.snaps in
    let j = p.crossed - 1 in
    let restore_cycle = Cpu.snapshot_cycle snaps.(j).state in
    let injector = Injector.create ~model ~freq_mhz ~rng:p.boundary.(j) () in
    let stats, trial =
      Trial.simulate ~bench ~injector ~budget ~resume:snaps.(j).state (fun mem ->
          for k = 0 to j do
            Array.iter
              (fun (page, s) ->
                Memory.blit_from_string mem ~pos:(page * trace.trace_page_size) s)
              snaps.(k).pages
          done)
    in
    Sfi_obs.Counter.incr obs_restores;
    Sfi_obs.Counter.add obs_suffix_cycles (stats.Cpu.cycles - restore_cycle);
    Sfi_obs.Counter.add obs_cycles_elided restore_cycle;
    trial
  end
