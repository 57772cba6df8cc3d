open Sfi_util
open Sfi_sim
open Sfi_kernels

(* ZOFI-style fault-free fast-forward (DESIGN.md §13).

   A trial's execution is deterministic and identical to the fault-free
   reference run until its first injected fault, so until then its hooks
   fire at the recorded cycles with the recorded classes. Each model
   answers, per hook call and without operands, whether the call may
   inject ([Model.instance.may_inject]), consuming exactly the draws the
   real call would; [false] means the real call returns mask 0 whatever
   its operands. That makes two eliminations sound:

   - {e analytic trials}: ask the recorded schedule against a copy of
     the trial's RNG (the "probe"); if no call may inject, the trial is
     provably the reference run and its result is assembled from the
     cached reference stats and outputs without touching the ISS at all;
   - {e suffix trials}: otherwise, restore the last snapshot at or
     before the schedule entry that precedes the first call that may
     inject, and simulate only the suffix, with the real model seeded
     from the RNG state captured at that snapshot boundary, so the
     suffix re-fires the boundary-to-fault hooks with the same draws
     (masks 0), reaches the same first call, and from there runs
     exactly as the full run would. Restoring before the previous entry
     rather than before the call itself lets the suffix rebuild
     per-trial state that call reads: [skip]'s EX latch holds the
     result of the call before its trigger.

   A model with a trial-start edit ([state]) has no hook call to find:
   its trials restart from snapshot 0 (cycle 0, no page deltas), where
   the edit runs on the trial's own stream before the run continues.
   That is full replay through the one engine — no probe, no elision.

   Every program has a trace: the reference run is recorded under the
   watchdog budget its trials run under, whether it exits, traps, jumps
   to itself or runs out the budget, and its outcome is kept. So there
   is no fallback to full replay. This module owns the reference: its
   cycle count, the trial budget, the snapshot stride and the trace.

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

(* Fault-free cycle counts, computed once per process and, with a
   cache directory, once per directory. Keyed by the image's content,
   not the benchmark's name: [Registry.by_name ~seed] and the kernels'
   [create ~n] build same-named benchmarks with different images. *)
let reference_memo : int Sfi_cache.Once.t = Sfi_cache.Once.create ()

let reference_cycles (bench : Bench.t) =
  let fp = Sfi_cache.Fingerprint.create "sfi-refcycles/1" in
  Bench.add_fingerprint bench fp;
  let key = Sfi_cache.Fingerprint.hex fp in
  Sfi_cache.Once.get reference_memo ~key (fun () ->
      Sfi_cache.memo ~namespace:"refcycles" ~key ~valid:(fun cycles -> cycles > 0)
        (fun () -> (fst (Bench.run_fault_free bench)).Cpu.cycles))

(* The trial watchdog: 3x the fault-free cycle count plus 64k slack. *)
let budget bench = (3 * reference_cycles bench) + 65536

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

(* One interpreter pass ([Cpu.run_recording]) over the fault-free
   reference run, capturing a snapshot + dirty-page delta at every
   stride boundary and the full hook-call schedule (the recording hook
   returns mask 0, so the run IS the reference run). It runs under the
   trial budget, so whatever stops it — exit, trap, jump-to-self or the
   budget itself — stops the fault-free trial at the same cycle with
   the same outcome, which the trace keeps. *)
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
  let config = { Cpu.max_cycles = budget bench; Cpu.fault_hook = Some hook } in
  let stats =
    Cpu.run_recording ~config ~stride ~on_snapshot mem
      ~entry:bench.Bench.program.Sfi_isa.Program.entry
  in
  Sfi_obs.Counter.incr obs_traces;
  Sfi_obs.Counter.add obs_snapshots !n_snaps;
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

(* Traces per content key: the benchmark image and pipeline constants
   (the inputs that determine the reference run and its budget) plus
   the stride and page geometry — never the benchmark's name, since
   same-named benchmarks built from other seeds or sizes must not
   replay each other's snapshots. *)
let traces : trace Sfi_cache.Once.t = Sfi_cache.Once.create ()

let trace_at ~(bench : Bench.t) ~stride =
  let fp = Sfi_cache.Fingerprint.create "sfi-snap/1" in
  Bench.add_fingerprint bench fp;
  Sfi_cache.Fingerprint.add_int fp stride;
  Sfi_cache.Fingerprint.add_int fp page_size;
  let key = Sfi_cache.Fingerprint.hex fp in
  Sfi_cache.Once.get traces ~key (fun () ->
      Sfi_cache.memo ~namespace:"snap" ~key ~valid:plausible (fun () -> record ~bench ~stride))

let trace bench = trace_at ~bench ~stride:(stride_for ~ref_cycles:(reference_cycles bench))

(* Kept for the benchmark harness, which picks the stride itself. *)
let trace_for ~bench ~stride = Some (trace_at ~bench ~stride)

let trace_for_model ~bench ~model:_ ~stride = trace_for ~bench ~stride

(* ---------- the fast-forwarded trial ---------- *)

(* The probe's model instance, on a private copy of the trial stream. *)
let probe_instance ~model ~freq_mhz ~rng =
  let rng = Rng.copy rng in
  (Model.instantiate model ~count_obs:false ~freq_mhz ~rng, rng)

(* The probe: the instance walks the recorded schedule, asked
   [may_inject] for each call with its recorded cycle and class. Every
   call consumes exactly the draws the full run's corresponding call
   would and, up to the first call that may inject, sees the cycle the
   full run's call sees, so no earlier call of the full run injects,
   and the RNG copies taken at snapshot boundaries are exactly the
   stream states a full run would carry into those cycles. Consecutive
   entries whose class is a provable no-op consuming [k] gaussians
   ([skippable_gaussians]) are batched into one [Rng.skip_gaussians]
   jump — draw-for-draw equivalent, minus the per-call threshold math
   and transcendentals. [fault_at] is the first call that may inject
   ([-1] for a provably fault-free trial); [restore] the last snapshot
   at or before the entry preceding it (0 for the first entry);
   [boundary.(j)] holds the stream state at snapshot [j] for every
   [j <= restore]. *)
type probe = { fault_at : int; restore : int; boundary : Rng.t array }

let probe ~(inst : Model.instance) ~rng:probe_rng trace =
  let skip_tab =
    Array.map
      (fun cls -> match inst.Model.skippable_gaussians cls with Some k -> k | None -> -1)
      class_of_index
  in
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
  let boundary = Array.make n_snaps probe_rng in
  let next_snap = ref 0 in
  let fault_at = ref (-1) and restore = ref 0 in
  let i = ref 0 in
  while !fault_at < 0 && !i < n do
    let c = Array.unsafe_get trace.sched_cycle !i in
    (* the snapshots at or before the previous entry *)
    let before = !next_snap in
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
      if inst.Model.may_inject ~cycle:c ~cls then begin
        fault_at := !i;
        restore := max 0 (before - 1)
      end
      else incr i
    end
  done;
  { fault_at = !fault_at; restore = !restore; boundary }

let first_fault ~model ~freq_mhz ~trace ~rng =
  let inst, rng = probe_instance ~model ~freq_mhz ~rng in
  let p = probe ~inst ~rng trace in
  if p.fault_at < 0 then None
  else Some (trace.sched_cycle.(p.fault_at), class_of_index.(trace.sched_cls.(p.fault_at)))

(* Simulate a trial from snapshot [j] with a real injector on [rng], the
   trial stream's state at that snapshot: memory is the image plus the
   page deltas of snapshots [0..j], and at snapshot 0 (cycle 0) the
   model's trial-start edit runs first, as in a run from the program
   entry. The suffix runs under the same absolute cycle budget as a full
   run, and the fi_on window is re-armed from the snapshot. *)
let resume ~bench ~model ~freq_mhz ~budget ~trace ~rng j =
  let snaps = trace.snaps in
  let restore_cycle = Cpu.snapshot_cycle snaps.(j).state in
  let injector = Injector.create ~model ~freq_mhz ~rng () in
  let stats, trial =
    Trial.simulate ~bench ~injector ~budget ~resume:snaps.(j).state (fun mem ->
        for k = 0 to j do
          Array.iter
            (fun (page, s) ->
              Memory.blit_from_string mem ~pos:(page * trace.trace_page_size) s)
            snaps.(k).pages
        done;
        if j = 0 then ignore (Injector.trial_start injector mem : int))
  in
  Sfi_obs.Counter.incr obs_restores;
  Sfi_obs.Counter.add obs_suffix_cycles (stats.Cpu.cycles - restore_cycle);
  Sfi_obs.Counter.add obs_cycles_elided restore_cycle;
  trial

let run_trial ~(bench : Bench.t) ~model ~freq_mhz ~budget ~trace ~rng =
  let inst, probe_rng = probe_instance ~model ~freq_mhz ~rng in
  if Option.is_some inst.Model.trial_start then
    (* A trial-start edit: restart from cycle 0 on the untouched copy. *)
    resume ~bench ~model ~freq_mhz ~budget ~trace ~rng:probe_rng 0
  else begin
    let p = probe ~inst ~rng:probe_rng trace in
    if p.fault_at < 0 then begin
      (* Provably fault-free: the trial is the reference run. *)
      Sfi_obs.Counter.incr obs_elided;
      Sfi_obs.Counter.add obs_cycles_elided trace.ref_stats.Cpu.cycles;
      Trial.make ~bench ~stats:trace.ref_stats ~output:trace.ref_output ~fault_bits:0
        ~fault_events:0
    end
    else resume ~bench ~model ~freq_mhz ~budget ~trace ~rng:p.boundary.(p.restore) p.restore
  end
