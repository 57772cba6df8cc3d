(** Cycle-accurate simulator of the 6-stage in-order OpenRISC-style core.

    The modelled micro-architecture is the case study's: a single-issue
    6-stage pipeline (IF1/IF2/ID/EX/MEM/WB) with full forwarding, a
    single-cycle 32-bit multiplier, single-cycle SRAMs, no branch
    prediction and no branch delay slot. Under these rules an in-order
    core's EX-stage operand values equal the architectural register state
    immediately before the instruction, so the simulator executes each
    instruction atomically at its EX cycle and accounts for the pipeline
    through its two timing hazards:

    - taken control flow resolved in EX flushes the front end:
      {!branch_penalty} bubble cycles;
    - a load's result leaves MEM one cycle after EX, so a dependent
      instruction immediately following a load stalls one cycle
      (load-use interlock).

    This yields close to one instruction per cycle, as the paper states,
    and gives every instruction a definite EX-stage cycle number — the
    cycle at which the fault-injection hook fires for ALU instructions.

    Fault injection follows the paper's case study exactly: only the 32
    EX-stage ALU result endpoints can be corrupted; loads, stores,
    branches and jumps are timing-safe. Compare instructions run through
    the adder in subtract mode and derive the flag from the (possibly
    faulted) difference, so timing errors can redirect branches — the
    dominant cause of crashes and infinite loops. FI is gated to the
    benchmark kernel by [l.nop 0x10] / [l.nop 0x11] markers, and
    [l.nop 0x1] exits the simulation (or1ksim conventions).

    Runs execute on the {e compiled} engine: straight-line runs of
    pre-resolved micro-ops ({!Sfi_isa.Uop}) are grouped into cached
    basic blocks executed without per-instruction
    fetch/decode/watchdog overhead, with store-driven invalidation for
    self-modifying code. The {e interpreter} — one micro-op fetched from
    an unboxed decode table per cycle — is its slow path near the
    watchdog and after a store rewrote a cached block, the engine of
    {!run_recording}, and the reference the compiled engine is pinned to
    ({!run_reference}: same {!stats}, same fault-hook call sequence,
    checked by differential tests). Decodes and blocks persist across
    runs in a per-domain cache, validated by content at run entry (see
    {!run}). See DESIGN.md §12 for the cycle-exactness argument. *)

open Sfi_util

val branch_penalty : int
(** 2: front-end bubbles after taken control flow resolved in EX. *)

val load_use_penalty : int
(** 1: stall between a load and an immediately dependent consumer. *)

type fault_hook =
  cycle:int -> cls:Op_class.t -> a:U32.t -> b:U32.t -> result:U32.t -> U32.t
(** Called at the EX cycle of every ALU instruction while FI is active;
    returns the 32-bit fault mask XORed into the result register (0 for
    no fault). *)

type config = {
  max_cycles : int;        (** watchdog: exceeded -> [Watchdog] outcome *)
  fault_hook : fault_hook option;
  fi_always_on : bool;     (** inject outside kernel markers too *)
  trace : (pc:int -> Sfi_isa.Insn.t -> unit) option;
      (** called before every retired instruction (debugging aid) *)
}

val default_config : config
(** 50M-cycle watchdog, no fault hook, no trace. *)

type outcome =
  | Exited                 (** reached [l.nop 0x1] *)
  | Watchdog               (** cycle budget exhausted or jump-to-self *)
  | Trapped of string      (** illegal instruction, bad memory access... *)

type stats = {
  outcome : outcome;
  cycles : int;            (** total cycles including stalls and flushes *)
  instret : int;           (** retired instructions *)
  kernel_cycles : int;     (** cycles spent inside the FI window *)
  kernel_instret : int;
  alu_retired : int;       (** ALU-class instructions inside the window *)
  class_counts : int array;(** per {!Op_class.index}, inside the window *)
  control_retired : int;   (** branches/jumps inside the window *)
  memory_retired : int;    (** loads/stores inside the window *)
  taken_branches : int;
}

type snapshot
(** Full architectural state of the core at an instruction boundary —
    pc, flag, registers, interlock table, cycle/retire counters and the
    FI-window flag — excluding memory (restored separately by the
    caller) and the decode/block caches, which are derived state
    rebuilt lazily from memory. Snapshots are plain data (marshalable)
    and safe to keep across runs: both capture and restore copy the
    embedded arrays. *)

val snapshot_cycle : snapshot -> int
(** The cycle count at which the snapshot was taken. *)

val run : ?config:config -> ?resume:snapshot -> Memory.t -> entry:int -> stats
(** Executes until exit, watchdog, or trap. The memory is mutated in
    place (reload, {!Memory.copy} or {!Memory.blit} a pristine image
    between trials).

    Runs on one domain share an ISS state per memory size: its decode
    table and compiled blocks outlive a run, so repeated runs of one
    program neither allocate tables nor recompile blocks. Validity is
    checked by content at run entry: every cached decode is compared
    with the word it was decoded from, a changed word loses its decode,
    and a changed word inside a compiled block drops every block.
    Whatever the memory holds — another program, trial-start flips, a
    snapshot restore, code an earlier run's faulted store rewrote — a
    run is therefore exactly a run on a cold state. A run with
    [config.trace], and a run started from inside another run's hook or
    trace callback on the same domain, gets a private cold state; the
    shared one is released even when the hook raises. The returned
    {!stats} share nothing with the state.

    [resume] starts from a {!snapshot} instead of the reset state
    ([entry] is then ignored): given the same memory contents the
    snapshot was taken against, the suffix executes cycle-for-cycle
    identically to the run that produced it — including the absolute
    [max_cycles] watchdog, since the snapshot carries its cycle
    count. *)

val run_reference :
  ?config:config -> ?resume:snapshot -> Memory.t -> entry:int -> stats
(** Like {!run}, on the interpreter alone and a private cold state:
    every instruction is fetched, checked and dispatched one at a time.
    Bit-identical to {!run} — stats, memory and fault-hook call stream —
    and slower; it is the reference the differential tests and the
    bench harness hold the compiled engine to. *)

val run_recording :
  ?config:config ->
  stride:int ->
  on_snapshot:(snapshot -> unit) ->
  Memory.t ->
  entry:int ->
  stats
(** Like {!run_reference}, additionally calling
    [on_snapshot] with the pre-instruction state at the first
    instruction boundary at or after every [stride]-cycle mark
    (cycle 0 included). The callback must copy any memory pages it
    wants to pair with the snapshot before returning — the simulation
    keeps mutating the same {!Memory.t}. *)

val ipc : stats -> float
(** Retired instructions per cycle. *)
