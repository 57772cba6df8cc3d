open Sfi_util
open Sfi_isa

let branch_penalty = 2

let load_use_penalty = 1

type fault_hook =
  cycle:int -> cls:Op_class.t -> a:U32.t -> b:U32.t -> result:U32.t -> U32.t

type config = { max_cycles : int; fault_hook : fault_hook option }

let default_config = { max_cycles = 50_000_000; fault_hook = None }

type outcome = Exited | Watchdog | Trapped of string

type stats = {
  outcome : outcome;
  cycles : int;
  instret : int;
  kernel_cycles : int;
  kernel_instret : int;
  alu_retired : int;
  class_counts : int array;
  control_retired : int;
  memory_retired : int;
  taken_branches : int;
}

(* Engine-dependent work counters (how the result was computed, not
   what was computed), det:false like the bitsim.* family so cold/warm
   and interp/compiled runs keep identical det signatures. Accumulated
   in plain state fields during a run and flushed once at [finish] so
   the hot loops never touch the registry. *)
let obs_blocks_compiled = Sfi_obs.Counter.make ~det:false "cpu.blocks_compiled"

let obs_block_hits = Sfi_obs.Counter.make ~det:false "cpu.block_hits"

let obs_block_flushes = Sfi_obs.Counter.make ~det:false "cpu.block_flushes"

let obs_invalidations = Sfi_obs.Counter.make ~det:false "cpu.invalidations"

let obs_compiled_insns = Sfi_obs.Counter.make ~det:false "cpu.compiled_insns"

let obs_fallbacks = Sfi_obs.Counter.make ~det:false "cpu.fallbacks"

(* Flag logic sits behind the subtractor: equality and magnitude are
   derived from the (possibly faulted) 32-bit difference, with the
   operands' sign bits disambiguating the overflow cases. *)
let flag_of_cmp cmp a b diff =
  let eq = diff = 0 in
  let sign_r = diff land 0x8000_0000 <> 0 in
  let sa = a land 0x8000_0000 <> 0 and sb = b land 0x8000_0000 <> 0 in
  let lts = if sa <> sb then sa else sign_r in
  let ltu = if sa <> sb then sb else sign_r in
  match cmp with
  | Insn.Eq -> eq
  | Insn.Ne -> not eq
  | Insn.Lts -> lts
  | Insn.Ges -> not lts
  | Insn.Gts -> (not lts) && not eq
  | Insn.Les -> lts || eq
  | Insn.Ltu -> ltu
  | Insn.Geu -> not ltu
  | Insn.Gtu -> (not ltu) && not eq
  | Insn.Leu -> ltu || eq

(* One ISS state serves many runs: [start] resets the architectural
   fields and the run configuration, while the decode table and the
   compiled blocks survive, validated against each new memory by
   content (see [validate]).

   Field order is deliberate: the fields written on every instruction
   or block sit between two runs of at least eight fields that a run
   writes rarely or never, so no hot field shares a cache line with
   whatever the allocator placed next to the record. A state lives as
   long as its domain: a neighbour that another domain reads often (a
   model table every hook call consults, say) would otherwise cost
   that domain a miss on every write here for the rest of the
   process. *)
type state = {
  (* cold: fixed per state, or set once per run by [start] *)
  mutable mem : Memory.t;
  addr_mask : int; (* Memory.size - 1: SRAM decoder mask for pc and stores *)
  regs : int array;
  (* load-use interlock: cycle at which each register's value can be
     consumed by EX (only loads set values in the future) *)
  ready : int array;
  class_counts : int array;
  (* the run's configuration, set by [start]: compiled closures read
     these fields instead of capturing the values, so a block outlives
     the run that compiled it *)
  mutable max_cycles : int;
  mutable fault_hook : fault_hook option;
  (* fixed for the state's lifetime: only a [run_reference] state
     traces, and only the interpreter reads it *)
  trace : (pc:int -> Insn.t -> unit) option;
  (* unboxed decode cache: one Uop quad per instruction word, slot 0
     u_unfilled until first fetched and re-u_unfilled by stores *)
  utab : int array;
  (* hot: architectural state and counters *)
  mutable pc : int;
  mutable flag : bool;
  mutable cycle : int;
  mutable instret : int;
  mutable fi_on : bool;
  mutable kernel_cycles : int;
  mutable kernel_instret : int;
  mutable alu_retired : int;
  mutable control_retired : int;
  mutable memory_retired : int;
  mutable taken_branches : int;
  mutable aborted : bool; (* a store flushed the cache mid-block *)
  (* context of the block currently executing, for the exact trap/exit
     patch-up and the per-block specialization (fields, not locals: the
     closures and the exception handler must see the values at raise
     time without boxing a ref per block) *)
  mutable blk_i : int;
  mutable blk_before : int;
  mutable blk_fi0 : bool; (* st.fi_on at block entry *)
  mutable blk_c0 : int; (* st.cycle at block entry *)
  (* id of the block executing: an int, so updating it on every chained
     block costs no write barrier on the long-lived state *)
  mutable blk_bid : int;
  (* obs accumulators, flushed once per run *)
  mutable n_blocks_compiled : int;
  mutable n_block_hits : int;
  mutable n_block_flushes : int;
  mutable n_invalidations : int;
  mutable n_compiled_insns : int;
  mutable n_fallbacks : int;
  (* cold: caches, written when a word is decoded or a block compiled *)
  (* per word: the raw word its quad was decoded from, or -1 when the
     word is not listed in [decoded]; [decoded.(0 .. n_decoded-1)]
     lists every word with a filled quad (plus, until the next
     [validate], words a store has reset since) *)
  raw : int array;
  mutable decoded : int array;
  mutable n_decoded : int;
  (* compiled-engine block cache; [||] when interpreting *)
  compiled : bool;
  covered : int array; (* per word: number of cached blocks containing it *)
  block_of : int array; (* entry word index -> block id, -1 for none *)
  mutable blocks : int array array;
  (* threaded code: blocks.(bid) describes the block, threads.(bid) is
     the head closure of its compiled closure chain *)
  mutable threads : (int -> unit) array;
  mutable n_blocks : int;
  mutable in_use : bool; (* a run is executing on this state *)
}

(* [regs], [ready] and [class_counts] are written on every instruction
   or block and outlive every run like the record itself, so they keep
   [pad] cold slots at both ends for the same reason: element [i] lives
   in slot [pad + i]. *)
let pad = 8

let padded n = Array.make (n + (2 * pad)) 0

let finish st outcome =
  if Sfi_obs.enabled () then begin
    Sfi_obs.Counter.add obs_invalidations st.n_invalidations;
    Sfi_obs.Counter.add obs_blocks_compiled st.n_blocks_compiled;
    Sfi_obs.Counter.add obs_block_hits st.n_block_hits;
    Sfi_obs.Counter.add obs_block_flushes st.n_block_flushes;
    Sfi_obs.Counter.add obs_compiled_insns st.n_compiled_insns;
    Sfi_obs.Counter.add obs_fallbacks st.n_fallbacks
  end;
  {
    outcome;
    cycles = st.cycle;
    instret = st.instret;
    kernel_cycles = st.kernel_cycles;
    kernel_instret = st.kernel_instret;
    alu_retired = st.alu_retired;
    (* copied: the state, and its counters, serve the next run too *)
    class_counts = Array.sub st.class_counts pad Op_class.count;
    control_retired = st.control_retired;
    memory_retired = st.memory_retired;
    taken_branches = st.taken_branches;
  }

exception Exit_sim of outcome

(* Register indices come from 5-bit decode fields and comparison
   indices from Uop's dense tables, so the unsafe accesses below are
   bounds-checked by construction. *)

let[@inline] reg st r = if r = 0 then 0 else Array.unsafe_get st.regs (pad + r)

let[@inline] set_reg st r v = if r <> 0 then Array.unsafe_set st.regs (pad + r) v

let[@inline] wait st r =
  if r <> 0 && Array.unsafe_get st.ready (pad + r) > st.cycle then
    st.cycle <- Array.unsafe_get st.ready (pad + r)

let[@inline] count_control st =
  if st.fi_on then st.control_retired <- st.control_retired + 1

let[@inline] count_memory st =
  if st.fi_on then st.memory_retired <- st.memory_retired + 1

(* The compiled executor dispatches on literal micro-opcodes (a dense
   match compiles to one jump table); pin the literals to Uop's layout
   and the inlined class indices to Op_class's order. *)
let () =
  assert (
    Uop.u_alu_rr = 2 && Uop.u_alu_ri = 11 && Uop.u_sf = 20 && Uop.u_sfi = 21
    && Uop.u_j = 22 && Uop.u_j_self = 23 && Uop.u_jal = 24 && Uop.u_jr = 25
    && Uop.u_jalr = 26 && Uop.u_bf = 27 && Uop.u_bnf = 28 && Uop.u_lwz = 29
    && Uop.u_lhz = 30 && Uop.u_lbz = 31 && Uop.u_sw = 32 && Uop.u_sh = 33
    && Uop.u_sb = 34 && Uop.u_nop = 35 && Uop.u_nop_exit = 36
    && Uop.u_nop_kernel_begin = 37 && Uop.u_nop_kernel_end = 38);
  assert (
    Op_class.index Op_class.Add = 0
    && Op_class.index Op_class.Sub = 1
    && Op_class.index Op_class.Mul = 2
    && Op_class.index Op_class.Sll = 3
    && Op_class.index Op_class.Srl = 4
    && Op_class.index Op_class.Sra = 5
    && Op_class.index Op_class.And_ = 6
    && Op_class.index Op_class.Or_ = 7
    && Op_class.index Op_class.Xor_ = 8)

let alu_result st cls a b =
  let clean = Op_class.apply cls a b in
  let faulted =
    if st.fi_on then
      match st.fault_hook with
      | Some hook ->
        let mask = hook ~cycle:st.cycle ~cls ~a ~b ~result:clean in
        if mask = 0 then clean else clean lxor mask
      | None -> clean
    else clean
  in
  if st.fi_on then begin
    st.alu_retired <- st.alu_retired + 1;
    let i = Op_class.index cls in
    st.class_counts.(pad + i) <- st.class_counts.(pad + i) + 1
  end;
  faulted

let[@inline] jump_to st target =
  st.taken_branches <- st.taken_branches + 1;
  st.cycle <- st.cycle + branch_penalty;
  st.pc <- target

(* Fetch-side decode of word [idx] from current memory, recording the
   raw word so a later run can tell whether the quad still holds. *)
let decode st idx =
  let w = Memory.read_u32 st.mem (idx lsl 2) in
  if Array.unsafe_get st.raw idx < 0 then begin
    if st.n_decoded = Array.length st.decoded then begin
      let bigger = Array.make (2 * st.n_decoded) 0 in
      Array.blit st.decoded 0 bigger 0 st.n_decoded;
      st.decoded <- bigger
    end;
    Array.unsafe_set st.decoded st.n_decoded idx;
    st.n_decoded <- st.n_decoded + 1
  end;
  Array.unsafe_set st.raw idx w;
  Uop.decode_into st.utab ~idx ~addr_mask:st.addr_mask w

(* Drops every compiled block. Only the words the blocks cover are
   touched, so a flush costs the size of the cached code, not of
   memory. *)
let flush_blocks st =
  for bid = 0 to st.n_blocks - 1 do
    let code = Array.unsafe_get st.blocks bid in
    let entry = Array.unsafe_get code 1 lsr 2 in
    Array.unsafe_set st.block_of entry (-1);
    Array.fill st.covered entry (Array.unsafe_get code 0) 0
  done;
  st.n_blocks <- 0;
  st.n_block_flushes <- st.n_block_flushes + 1

let invalidate st addr =
  (* Wrap with the SRAM decoder mask exactly like the data path: a
     store through a fault-corrupted high-bit pointer clobbers the
     same wrapped location [Memory.write_u32] wrote, so its cached
     decode must be dropped, not skipped as "out of range". *)
  let idx = (addr land st.addr_mask) lsr 2 in
  Array.unsafe_set st.utab (idx lsl 2) Uop.u_unfilled;
  st.n_invalidations <- st.n_invalidations + 1;
  if st.compiled && Array.unsafe_get st.covered idx > 0 then begin
    (* The store rewrote a word some cached block decoded. Drop the
       whole cache and abort the block being executed; the dispatcher
       resumes at the next pc and recompiles from current memory. *)
    flush_blocks st;
    st.aborted <- true
  end

(* Run-entry validation of the caches against the run's memory, by
   content: every listed word is compared with the raw word its quad
   was decoded from. A changed word loses its quad; if a compiled block
   covers it, every block goes. Words a store reset during an earlier
   run leave the list (their slot is already u_unfilled). Whatever put
   the memory in its current state — a different program, trial-start
   flips, a fast-forward restore, a faulted store of an earlier run —
   the surviving quads and blocks are exactly those a fresh state would
   build from this memory. *)
let validate st =
  let stale_block = ref false in
  let kept = ref 0 in
  for i = 0 to st.n_decoded - 1 do
    let idx = Array.unsafe_get st.decoded i in
    if
      Memory.read_u32 st.mem (idx lsl 2) = Array.unsafe_get st.raw idx
      && Array.unsafe_get st.utab (idx lsl 2) <> Uop.u_unfilled
    then begin
      Array.unsafe_set st.decoded !kept idx;
      incr kept
    end
    else begin
      (* a covered word always holds a filled quad: a store into it
         flushed the blocks, so only a changed word lands here *)
      if st.compiled && Array.unsafe_get st.covered idx > 0 then stale_block := true;
      Array.unsafe_set st.utab (idx lsl 2) Uop.u_unfilled;
      Array.unsafe_set st.raw idx (-1)
    end
  done;
  st.n_decoded <- !kept;
  if !stale_block then flush_blocks st

(* One instruction in interpreter semantics: operands from the Uop
   quad, pc updated in place. Every arm mirrors the historic Insn.t
   interpreter line for line (same wait/count/hook order, so fault-hook
   streams and cycle counts are bit-identical). *)
let exec_uop st op x y z =
  if op < Uop.u_sf then begin
    (if op < Uop.u_alu_ri then begin
       (* ALU reg-reg: x=rD y=rA z=rB *)
       wait st y;
       wait st z;
       set_reg st x
         (alu_result st
            (Array.unsafe_get Uop.cls_table (op - Uop.u_alu_rr))
            (reg st y) (reg st z))
     end
     else begin
       (* ALU reg-imm: x=rD y=rA z=imm32 *)
       wait st y;
       set_reg st x
         (alu_result st
            (Array.unsafe_get Uop.cls_table (op - Uop.u_alu_ri))
            (reg st y) z)
     end);
    st.pc <- st.pc + 4
  end
  else if op <= Uop.u_sfi then begin
    (* compares: the subtractor computes the difference, but the flag
       flip-flop is not an ALU endpoint, so no fault is injected here
       (paper Sec. 2.1: only the 32 EX result-register endpoints can
       fail). Corrupted branching still happens indirectly, through
       previously faulted values and indices reaching a compare. *)
    (if op = Uop.u_sf then begin
       wait st y;
       wait st z;
       let va = reg st y and vb = reg st z in
       st.flag <- flag_of_cmp (Array.unsafe_get Uop.cmp_table x) va vb (U32.sub va vb)
     end
     else begin
       wait st y;
       let va = reg st y in
       st.flag <- flag_of_cmp (Array.unsafe_get Uop.cmp_table x) va z (U32.sub va z)
     end);
    st.pc <- st.pc + 4
  end
  else if op <= Uop.u_bnf then begin
    count_control st;
    if op = Uop.u_j then jump_to st x
    else if op = Uop.u_j_self then
      raise (Exit_sim Watchdog) (* jump-to-self: infinite loop *)
    else if op = Uop.u_jal then begin
      set_reg st Insn.link_register y;
      jump_to st x
    end
    else if op = Uop.u_jr then begin
      wait st x;
      jump_to st (reg st x)
    end
    else if op = Uop.u_jalr then begin
      wait st x;
      let target = reg st x in
      set_reg st Insn.link_register y;
      jump_to st target
    end
    else if op = Uop.u_bf then begin
      if st.flag then jump_to st x else st.pc <- st.pc + 4
    end
    else begin
      (* u_bnf *)
      if not st.flag then jump_to st x else st.pc <- st.pc + 4
    end
  end
  else if op <= Uop.u_lbz then begin
    count_memory st;
    wait st z;
    let addr = U32.add (reg st z) y in
    let v =
      if op = Uop.u_lwz then Memory.read_u32 st.mem addr
      else if op = Uop.u_lhz then Memory.read_u16 st.mem addr
      else Memory.read_u8 st.mem addr
    in
    set_reg st x v;
    if x <> 0 then Array.unsafe_set st.ready (pad + x) (st.cycle + 1 + load_use_penalty);
    st.pc <- st.pc + 4
  end
  else if op <= Uop.u_sb then begin
    count_memory st;
    wait st y;
    wait st z;
    let addr = U32.add (reg st y) x in
    (if op = Uop.u_sw then Memory.write_u32 st.mem addr (reg st z)
     else if op = Uop.u_sh then Memory.write_u16 st.mem addr (reg st z)
     else Memory.write_u8 st.mem addr (reg st z));
    invalidate st addr;
    st.pc <- st.pc + 4
  end
  else begin
    (* nops *)
    if op = Uop.u_nop_exit then raise (Exit_sim Exited)
    else if op = Uop.u_nop_kernel_begin then st.fi_on <- true
    else if op = Uop.u_nop_kernel_end then st.fi_on <- false;
    st.pc <- st.pc + 4
  end;
  st.cycle <- st.cycle + 1;
  st.instret <- st.instret + 1

(* One full fetch-decode-execute step with every architectural check.
   This IS the interpreter engine; the compiled engine drops to it near
   the watchdog, where per-instruction budget checks matter. *)
let step st =
  if st.cycle >= st.max_cycles then raise (Exit_sim Watchdog);
  if st.pc land 3 <> 0 then
    raise (Exit_sim (Trapped (Printf.sprintf "misaligned pc 0x%x" st.pc)));
  (* The fetch address wraps with the SRAM decoder, like data
     accesses: a corrupted jump lands somewhere in memory and the
     core executes whatever it finds (often an illegal encoding). *)
  st.pc <- st.pc land st.addr_mask;
  let u = st.utab in
  let idx = st.pc lsr 2 in
  let base = idx lsl 2 in
  if Array.unsafe_get u base = Uop.u_unfilled then decode st idx;
  let op = Array.unsafe_get u base in
  if op = Uop.u_illegal then
    raise (Exit_sim (Trapped (Printf.sprintf "illegal instruction at 0x%x" st.pc)));
  (match st.trace with
  | Some f -> (
    (* the boxed form is materialized on demand; tracing is a
       debugging aid and stays off the hot path *)
    match Encode.decode (Memory.read_u32 st.mem st.pc) with
    | Some insn -> f ~pc:st.pc insn
    | None -> ())
  | None -> ());
  let was_on = st.fi_on in
  let before = st.cycle in
  exec_uop st op
    (Array.unsafe_get u (base + 1))
    (Array.unsafe_get u (base + 2))
    (Array.unsafe_get u (base + 3));
  if was_on || st.fi_on then begin
    st.kernel_cycles <- st.kernel_cycles + (st.cycle - before);
    st.kernel_instret <- st.kernel_instret + 1
  end

let run_interp st =
  while true do
    step st
  done

(* ---------- compiled basic-block engine ---------- *)

(* Blocks are straight-line runs of quads copied out of the decode
   table. Layout: [| len; entry_pc; terminated; quads...; counter
   totals |] where [terminated] is 1 when the last quad is a
   control-flow or marker instruction (which sets pc itself) and 0 when
   the block falls through (length cap or end of memory), in which case
   the epilogue sets pc to entry_pc + 4*len after the last quad. The
   descriptor array is the compiler's input and the patch-up paths'
   metadata; what actually executes is the closure chain built from it
   by [thread_of_block]. *)

let max_block_insns = 256

(* Conservative per-instruction cycle ceiling inside a block: +1 for
   the instruction, at most +1 interlock stall (a load schedules
   ready = cycle + 2 and only the immediately following instruction
   can consume earlier than that), +2 taken-branch penalty. Blocks
   whose worst case could reach the watchdog are stepped one
   instruction at a time instead. *)
let max_cycles_per_insn = 4

(* Bit 6 set on a block-local opcode marks a quad that must probe the
   load-use interlock at run time (see compile_block); Uop codes stay
   below it. *)
let wait_flag = 64

let[@inline] is_terminator op =
  op = Uop.u_illegal || (op >= Uop.u_j && op <= Uop.u_bnf) || op >= Uop.u_nop_exit

(* Adds a completed block's static fi-window counter totals (appended
   after the quads by [compile_block]). Only called when the block ran
   with fi on; the interpreter bumps the same counters per
   instruction. *)
let book_block_counters st code len =
  let cb = 3 + (len lsl 2) in
  st.alu_retired <- st.alu_retired + Array.unsafe_get code cb;
  st.control_retired <- st.control_retired + Array.unsafe_get code (cb + 1);
  st.memory_retired <- st.memory_retired + Array.unsafe_get code (cb + 2);
  let n = Array.unsafe_get code (cb + 3) in
  for k = 0 to n - 1 do
    let idx = Array.unsafe_get code (cb + 4 + (k lsl 1)) in
    st.class_counts.(pad + idx) <-
      st.class_counts.(pad + idx) + Array.unsafe_get code (cb + 5 + (k lsl 1))
  done

(* Exact counters for the first [retired] quads of a partially executed
   block — the trap/exit/abort fix-up paths recompute what the batched
   epilogue would have booked. Caller gates on the block's fi flag. *)
let book_partial_counters st code retired =
  for i = 0 to retired - 1 do
    let op = Array.unsafe_get code (3 + (i lsl 2)) land (wait_flag - 1) in
    if op >= Uop.u_alu_rr && op <= Uop.u_alu_ri + 8 then begin
      st.alu_retired <- st.alu_retired + 1;
      let k = if op < Uop.u_alu_ri then op - Uop.u_alu_rr else op - Uop.u_alu_ri in
      st.class_counts.(pad + k) <- st.class_counts.(pad + k) + 1
    end
    else if op >= Uop.u_j && op <= Uop.u_bnf then
      st.control_retired <- st.control_retired + 1
    else if op >= Uop.u_lwz && op <= Uop.u_sb then
      st.memory_retired <- st.memory_retired + 1
  done

(* Interlock check against a live cycle value: returns the (possibly
   stalled) cycle instead of mutating st.cycle. *)
let[@inline] waitc st r cyc =
  if r <> 0 && Array.unsafe_get st.ready (pad + r) > cyc then Array.unsafe_get st.ready (pad + r)
  else cyc

exception Block_aborted

(* A store rewrote a word of a cached block: the remaining closures of
   the chain would execute stale code, so book the [i + 1] instructions
   that completed (including the store, whose cycle is [cyc_done]) and
   resume exact fetch at the next address. Escapes the chain by
   exception; the constant constructor allocates nothing. *)
let abort_block st code entry_pc cyc_done i =
  let retired = i + 1 in
  st.cycle <- cyc_done;
  st.pc <- entry_pc + (retired lsl 2);
  st.instret <- st.instret + retired;
  if st.blk_fi0 then begin
    st.kernel_cycles <- st.kernel_cycles + (cyc_done - st.blk_c0);
    st.kernel_instret <- st.kernel_instret + retired;
    (* [retired] includes the store that flushed the cache, so the quad
       walk books its memory_retired along with its predecessors'. *)
    book_partial_counters st code retired
  end;
  st.n_compiled_insns <- st.n_compiled_insns + retired;
  raise_notrace Block_aborted

(* The fault hook of an ALU micro-op inside the fi window: same hook
   signature, argument values and call stream as [alu_result], and the
   clean result for a run without a hook. [cyc] is the live cycle count
   the closure chain threads through its argument (st.cycle is stale
   inside a block). The retired-class counters are NOT bumped here —
   they are booked per block from the static totals. *)
let[@inline] hooked st cls a b clean cyc =
  match st.fault_hook with
  | Some h ->
    let mask = h ~cycle:cyc ~cls ~a ~b ~result:clean in
    if mask = 0 then clean else clean lxor mask
  | None -> clean

(* Compiles a block descriptor into threaded code: one closure per
   instruction, each ending with a tail call to its successor's
   closure; the last one calls the block epilogue. This is the point of
   the engine. The interpreter — and a quad-loop executor — dispatches
   every instruction through one shared match whose indirect jump
   mispredicts on nearly every instruction (the opcode sequence is
   effectively random to a BTB keyed by branch address), while the
   chain gives every instruction its own call site with exactly one
   ever-observed target, which predicts perfectly after the first
   iteration.

   A block lives as long as the words it covers are unchanged, across
   runs (see [validate]), so the closures capture only the block's own
   code and the state; per-run values — the hook and the watchdog
   budget — are read from state fields, and every micro-op has exactly
   one closure whatever the run. An ALU closure calls [hooked] only
   when [st.blk_fi0], the fi-window flag at block entry, is set
   (constant across a block because kernel markers terminate blocks).
   The builder specializes on what stays fixed for the lifetime of a
   block:

   - the static interlock verdict (bit [wait_flag], see
     [compile_block]) becomes a captured boolean, so non-stalling
     instructions skip the ready-table probes;
   - comparison variants, trap message strings and link values are
     pre-resolved into the closure environments.

   The cycle counter is threaded through the [int] parameter (a
   register); [st.cycle] is synced only where an exception could
   surface it (before a memory access, before an exit/trap raise) and
   in the epilogue. Single-argument closures are deliberate: OCaml
   compiles an unknown 1-ary application to a direct indirect call,
   while higher arities funnel through the shared caml_applyN
   dispatchers, whose indirect jumps would reintroduce the
   misprediction this design removes. The chain allocates once at
   compile time; executing it allocates nothing. *)
let thread_of_block st code =
  let len = Array.unsafe_get code 0 in
  let entry_pc = Array.unsafe_get code 1 in
  let terminated = Array.unsafe_get code 2 = 1 in
  let fall_pc = entry_pc + (len lsl 2) in
  (* All [len] instructions completed: batched bookkeeping, then
     chaining — if the successor address already has a compiled block
     and that block provably fits under the watchdog budget, enter its
     chain directly, skipping the dispatcher and the exec_block
     prologue. A self-looping terminator (the shape of every tight
     kernel loop) chains to this block's own head, so the call site
     below stays monomorphic on the hot path. *)
  let epilogue cyc =
    st.cycle <- cyc;
    st.instret <- st.instret + len;
    if st.blk_fi0 then begin
      st.kernel_cycles <- st.kernel_cycles + (cyc - st.blk_c0);
      st.kernel_instret <- st.kernel_instret + len;
      book_block_counters st code len
    end
    else if st.fi_on then begin
      (* fi was off and is now on: the only instruction that flips it
         is a trailing kernel_begin marker, which the interpreter
         counts (one cycle, no stall) *)
      st.kernel_cycles <- st.kernel_cycles + 1;
      st.kernel_instret <- st.kernel_instret + 1
    end;
    if not terminated then st.pc <- fall_pc;
    st.n_compiled_insns <- st.n_compiled_insns + len;
    let pc = st.pc in
    if pc land 3 = 0 then begin
      let idx = (pc land st.addr_mask) lsr 2 in
      let bid = Array.unsafe_get st.block_of idx in
      if bid >= 0 then begin
        let ncode = Array.unsafe_get st.blocks bid in
        if cyc + (max_cycles_per_insn * Array.unsafe_get ncode 0) < st.max_cycles
        then begin
          st.pc <- pc land st.addr_mask;
          st.n_block_hits <- st.n_block_hits + 1;
          st.blk_fi0 <- st.fi_on;
          st.blk_c0 <- cyc;
          st.blk_bid <- bid;
          (Array.unsafe_get st.threads bid) cyc
        end
      end
    end
    (* otherwise fall back to the dispatcher: misaligned pc (trap),
       uncompiled successor, or too close to the watchdog *)
  in
  let next = ref epilogue in
  for i = len - 1 downto 0 do
    let base = 3 + (i lsl 2) in
    let fop = Array.unsafe_get code base in
    let wf = fop >= wait_flag in
    let op = fop land (wait_flag - 1) in
    let x = Array.unsafe_get code (base + 1) in
    let y = Array.unsafe_get code (base + 2) in
    let z = Array.unsafe_get code (base + 3) in
    let pc = entry_pc + (i lsl 2) in
    let k = !next in
    let body =
      match op with
      (* --- ALU register-register: x=rD y=rA z=rB --- *)
      | 2 ->
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let a = reg st y and b = reg st z in
          let r = U32.add a b in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Add a b r cyc else r);
          k (cyc + 1)
      | 3 ->
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let a = reg st y and b = reg st z in
          let r = U32.sub a b in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Sub a b r cyc else r);
          k (cyc + 1)
      | 4 ->
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let a = reg st y and b = reg st z in
          let r = U32.mul a b in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Mul a b r cyc else r);
          k (cyc + 1)
      | 5 ->
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let a = reg st y and b = reg st z in
          let r = U32.shift_left a (b land 31) in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Sll a b r cyc else r);
          k (cyc + 1)
      | 6 ->
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let a = reg st y and b = reg st z in
          let r = U32.shift_right_logical a (b land 31) in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Srl a b r cyc else r);
          k (cyc + 1)
      | 7 ->
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let a = reg st y and b = reg st z in
          let r = U32.shift_right_arith a (b land 31) in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Sra a b r cyc else r);
          k (cyc + 1)
      | 8 ->
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let a = reg st y and b = reg st z in
          let r = U32.logand a b in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.And_ a b r cyc else r);
          k (cyc + 1)
      | 9 ->
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let a = reg st y and b = reg st z in
          let r = U32.logor a b in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Or_ a b r cyc else r);
          k (cyc + 1)
      | 10 ->
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let a = reg st y and b = reg st z in
          let r = U32.logxor a b in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Xor_ a b r cyc else r);
          k (cyc + 1)
      (* --- ALU register-immediate: x=rD y=rA z=imm32 --- *)
      | 11 ->
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let a = reg st y in
          let r = U32.add a z in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Add a z r cyc else r);
          k (cyc + 1)
      | 12 ->
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let a = reg st y in
          let r = U32.sub a z in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Sub a z r cyc else r);
          k (cyc + 1)
      | 13 ->
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let a = reg st y in
          let r = U32.mul a z in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Mul a z r cyc else r);
          k (cyc + 1)
      | 14 ->
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let a = reg st y in
          let r = U32.shift_left a (z land 31) in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Sll a z r cyc else r);
          k (cyc + 1)
      | 15 ->
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let a = reg st y in
          let r = U32.shift_right_logical a (z land 31) in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Srl a z r cyc else r);
          k (cyc + 1)
      | 16 ->
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let a = reg st y in
          let r = U32.shift_right_arith a (z land 31) in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Sra a z r cyc else r);
          k (cyc + 1)
      | 17 ->
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let a = reg st y in
          let r = U32.logand a z in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.And_ a z r cyc else r);
          k (cyc + 1)
      | 18 ->
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let a = reg st y in
          let r = U32.logor a z in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Or_ a z r cyc else r);
          k (cyc + 1)
      | 19 ->
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let a = reg st y in
          let r = U32.logxor a z in
          set_reg st x (if st.blk_fi0 then hooked st Op_class.Xor_ a z r cyc else r);
          k (cyc + 1)
      (* --- compares (not ALU endpoints: no fault injection) --- *)
      | 20 ->
        let cmp = Array.unsafe_get Uop.cmp_table x in
        fun cyc ->
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          let va = reg st y and vb = reg st z in
          st.flag <- flag_of_cmp cmp va vb (U32.sub va vb);
          k (cyc + 1)
      | 21 ->
        let cmp = Array.unsafe_get Uop.cmp_table x in
        fun cyc ->
          let cyc = if wf then waitc st y cyc else cyc in
          let va = reg st y in
          st.flag <- flag_of_cmp cmp va z (U32.sub va z);
          k (cyc + 1)
      (* --- control flow (always the last quad of a block) --- *)
      | 22 ->
        fun cyc ->
          st.taken_branches <- st.taken_branches + 1;
          st.pc <- x;
          k (cyc + 1 + branch_penalty)
      | 23 ->
        fun cyc ->
          st.blk_i <- i;
          st.blk_before <- cyc;
          st.cycle <- cyc;
          raise (Exit_sim Watchdog) (* jump-to-self: infinite loop *)
      | 24 ->
        fun cyc ->
          set_reg st Insn.link_register y;
          st.taken_branches <- st.taken_branches + 1;
          st.pc <- x;
          k (cyc + 1 + branch_penalty)
      | 25 ->
        fun cyc ->
          let cyc = if wf then waitc st x cyc else cyc in
          st.taken_branches <- st.taken_branches + 1;
          st.pc <- reg st x;
          k (cyc + 1 + branch_penalty)
      | 26 ->
        fun cyc ->
          let cyc = if wf then waitc st x cyc else cyc in
          let target = reg st x in
          set_reg st Insn.link_register y;
          st.taken_branches <- st.taken_branches + 1;
          st.pc <- target;
          k (cyc + 1 + branch_penalty)
      | 27 ->
        fun cyc ->
          if st.flag then begin
            st.taken_branches <- st.taken_branches + 1;
            st.pc <- x;
            k (cyc + 1 + branch_penalty)
          end
          else begin
            st.pc <- fall_pc;
            k (cyc + 1)
          end
      | 28 ->
        fun cyc ->
          if not st.flag then begin
            st.taken_branches <- st.taken_branches + 1;
            st.pc <- x;
            k (cyc + 1 + branch_penalty)
          end
          else begin
            st.pc <- fall_pc;
            k (cyc + 1)
          end
      (* --- loads: x=rD y=imm32 z=rA ---
         [blk_i]/[blk_before] record progress before the access in case
         it traps on misalignment; [blk_before] is pre-stall and
         [st.cycle] is synced post-stall, so a trap leaves exactly the
         interpreter's accounting: stall cycles in [cycles], none of
         the instruction in the kernel window *)
      | 29 ->
        fun cyc ->
          st.blk_i <- i;
          st.blk_before <- cyc;
          let cyc = if wf then waitc st z cyc else cyc in
          st.cycle <- cyc;
          set_reg st x (Memory.read_u32 st.mem (U32.add (reg st z) y));
          if x <> 0 then Array.unsafe_set st.ready (pad + x) (cyc + 1 + load_use_penalty);
          k (cyc + 1)
      | 30 ->
        fun cyc ->
          st.blk_i <- i;
          st.blk_before <- cyc;
          let cyc = if wf then waitc st z cyc else cyc in
          st.cycle <- cyc;
          set_reg st x (Memory.read_u16 st.mem (U32.add (reg st z) y));
          if x <> 0 then Array.unsafe_set st.ready (pad + x) (cyc + 1 + load_use_penalty);
          k (cyc + 1)
      | 31 ->
        fun cyc ->
          st.blk_i <- i;
          st.blk_before <- cyc;
          let cyc = if wf then waitc st z cyc else cyc in
          st.cycle <- cyc;
          set_reg st x (Memory.read_u8 st.mem (U32.add (reg st z) y));
          if x <> 0 then Array.unsafe_set st.ready (pad + x) (cyc + 1 + load_use_penalty);
          k (cyc + 1)
      (* --- stores: x=imm32 y=rA z=rB --- *)
      | 32 ->
        fun cyc ->
          st.blk_i <- i;
          st.blk_before <- cyc;
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          st.cycle <- cyc;
          let addr = U32.add (reg st y) x in
          Memory.write_u32 st.mem addr (reg st z);
          invalidate st addr;
          if st.aborted then abort_block st code entry_pc (cyc + 1) i;
          k (cyc + 1)
      | 33 ->
        fun cyc ->
          st.blk_i <- i;
          st.blk_before <- cyc;
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          st.cycle <- cyc;
          let addr = U32.add (reg st y) x in
          Memory.write_u16 st.mem addr (reg st z);
          invalidate st addr;
          if st.aborted then abort_block st code entry_pc (cyc + 1) i;
          k (cyc + 1)
      | 34 ->
        fun cyc ->
          st.blk_i <- i;
          st.blk_before <- cyc;
          let cyc = if wf then waitc st z (waitc st y cyc) else cyc in
          st.cycle <- cyc;
          let addr = U32.add (reg st y) x in
          Memory.write_u8 st.mem addr (reg st z);
          invalidate st addr;
          if st.aborted then abort_block st code entry_pc (cyc + 1) i;
          k (cyc + 1)
      (* --- nops --- *)
      | 35 -> fun cyc -> k (cyc + 1)
      | 36 ->
        fun cyc ->
          st.blk_i <- i;
          st.blk_before <- cyc;
          st.cycle <- cyc;
          raise (Exit_sim Exited)
      | 37 ->
        fun cyc ->
          st.fi_on <- true;
          st.pc <- fall_pc;
          k (cyc + 1)
      | 38 ->
        fun cyc ->
          st.fi_on <- false;
          st.pc <- fall_pc;
          k (cyc + 1)
      | _ ->
        (* u_illegal (or, unreachably, u_unfilled): traps at fetch,
           exactly like the interpreter *)
        let msg = Printf.sprintf "illegal instruction at 0x%x" pc in
        fun cyc ->
          st.blk_i <- i;
          st.blk_before <- cyc;
          st.cycle <- cyc;
          raise (Exit_sim (Trapped msg))
    in
    next := body
  done;
  !next

let compile_block st entry_idx =
  let u = st.utab in
  let n_words = Array.length st.block_of in
  let len = ref 0 in
  let stop = ref false in
  let terminated = ref false in
  while not !stop do
    let w = entry_idx + !len in
    if w >= n_words || !len >= max_block_insns then stop := true
    else begin
      if Array.unsafe_get u (w lsl 2) = Uop.u_unfilled then decode st w;
      incr len;
      if is_terminator (Array.unsafe_get u (w lsl 2)) then begin
        stop := true;
        terminated := true
      end
    end
  done;
  let len = !len in
  (* Static fi-window counter totals: retired-class counters are gated
     on [fi_on], which is constant across a block, so a completed block
     can book them in one step instead of per instruction. The totals
     live after the quads: [alu; control; memory; n_pairs; (class_idx,
     count) pairs for the nonzero ALU classes]. *)
  let class_totals = Array.make Op_class.count 0 in
  let alu_total = ref 0 and ctl_total = ref 0 and mem_total = ref 0 in
  for i = 0 to len - 1 do
    let op = Array.unsafe_get u ((entry_idx + i) lsl 2) in
    if op >= Uop.u_alu_rr && op <= Uop.u_alu_ri + 8 then begin
      incr alu_total;
      let k = if op < Uop.u_alu_ri then op - Uop.u_alu_rr else op - Uop.u_alu_ri in
      class_totals.(k) <- class_totals.(k) + 1
    end
    else if op >= Uop.u_j && op <= Uop.u_bnf then incr ctl_total
    else if op >= Uop.u_lwz && op <= Uop.u_sb then incr mem_total
  done;
  let n_pairs = Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 class_totals in
  let cb = 3 + (len lsl 2) in
  let code = Array.make (cb + 4 + (n_pairs lsl 1)) 0 in
  code.(0) <- len;
  code.(1) <- entry_idx lsl 2;
  code.(2) <- (if !terminated then 1 else 0);
  Array.blit u (entry_idx lsl 2) code 3 (len lsl 2);
  code.(cb) <- !alu_total;
  code.(cb + 1) <- !ctl_total;
  code.(cb + 2) <- !mem_total;
  code.(cb + 3) <- n_pairs;
  let p = ref (cb + 4) in
  Array.iteri
    (fun k c ->
      if c > 0 then begin
        code.(!p) <- k;
        code.(!p + 1) <- c;
        p := !p + 2
      end)
    class_totals;
  (* Static interlock elision: a load schedules ready = cycle + 2, so
     only the instruction immediately after it can ever stall. Mark the
     quads that must probe the ready table at run time — the first quad
     of the block (its dynamic predecessor is unknown: a fall-through
     or single-stepped path can end in a load) and any quad whose
     in-block predecessor is a load to a register it reads — by setting
     [wait_flag] on the block-local copy of the opcode. The shared
     [utab] is never flagged: the interpreter probes unconditionally. *)
  for i = 0 to len - 1 do
    let base = 3 + (i lsl 2) in
    let op = Array.unsafe_get code base in
    (* register read set per opcode layout (Uop): rr/sf/stores read
       y and z, ri/sfi read y, jr/jalr read x, loads read z *)
    let reads_regs =
      (op >= Uop.u_alu_rr && op <= Uop.u_sfi)
      || op = Uop.u_jr || op = Uop.u_jalr
      || (op >= Uop.u_lwz && op <= Uop.u_sb)
    in
    if reads_regs then begin
      let needs_wait =
        if i = 0 then true
        else begin
          let pbase = base - 4 in
          (* the predecessor may already carry wait_flag (set when it
             was processed, e.g. as the first quad): strip it *)
          let pop = Array.unsafe_get code pbase land (wait_flag - 1) in
          if pop >= Uop.u_lwz && pop <= Uop.u_lbz then begin
            let d = Array.unsafe_get code (pbase + 1) in
            d <> 0
            &&
            if op >= Uop.u_alu_rr && op < Uop.u_alu_ri then
              Array.unsafe_get code (base + 2) = d
              || Array.unsafe_get code (base + 3) = d
            else if op < Uop.u_sf || op = Uop.u_sfi then
              Array.unsafe_get code (base + 2) = d
            else if op = Uop.u_sf || (op >= Uop.u_sw && op <= Uop.u_sb) then
              Array.unsafe_get code (base + 2) = d
              || Array.unsafe_get code (base + 3) = d
            else if op = Uop.u_jr || op = Uop.u_jalr then
              Array.unsafe_get code (base + 1) = d
            else (* loads: base register in z *)
              Array.unsafe_get code (base + 3) = d
          end
          else false
        end
      in
      if needs_wait then Array.unsafe_set code base (op lor wait_flag)
    end
  done;
  for i = 0 to len - 1 do
    let w = entry_idx + i in
    Array.unsafe_set st.covered w (Array.unsafe_get st.covered w + 1)
  done;
  if st.n_blocks = Array.length st.blocks then begin
    let cap = 2 * Array.length st.blocks in
    let bigger = Array.make cap [||] in
    Array.blit st.blocks 0 bigger 0 st.n_blocks;
    st.blocks <- bigger;
    let bigger_t = Array.make cap (fun (_ : int) -> ()) in
    Array.blit st.threads 0 bigger_t 0 st.n_blocks;
    st.threads <- bigger_t
  end;
  let bid = st.n_blocks in
  st.blocks.(bid) <- code;
  st.threads.(bid) <- thread_of_block st code;
  st.block_of.(entry_idx) <- bid;
  st.n_blocks <- bid + 1;
  st.n_blocks_compiled <- st.n_blocks_compiled + 1;
  bid

(* Runs one cached block by entering its closure chain. Architecturally
   identical to running [step] over each instruction — the chain
   preserves the interpreter's cycle accounting, hook streams and trap
   points exactly; see thread_of_block. The handler performs the exact
   per-instruction patch-up for the [st.blk_i] completed predecessors
   of a raising instruction: the raising instruction itself retires
   nothing, exactly like the interpreter, and its kernel window ends at
   [st.blk_before] — the cycle at its fetch — because a trapping
   load/store may have stalled on the interlock first, and those cycles
   count toward [cycles] but not toward the kernel window. *)
let exec_block st bid =
  st.blk_fi0 <- st.fi_on;
  st.blk_c0 <- st.cycle;
  st.blk_bid <- bid;
  st.aborted <- false;
  try (Array.unsafe_get st.threads bid) st.cycle with
  | Block_aborted -> ()
  | (Exit_sim _ | Memory.Trap _) as e ->
    (* [st.blk_bid] rather than [bid]: the chain may have crossed into
       other blocks since this dispatch. No flush can have intervened
       (a flushing store aborts its block with [Block_aborted]), so the
       id still names the raising block. *)
    let code = Array.unsafe_get st.blocks st.blk_bid in
    let retired = st.blk_i in
    st.instret <- st.instret + retired;
    if st.blk_fi0 then begin
      st.kernel_cycles <- st.kernel_cycles + (st.blk_before - st.blk_c0);
      st.kernel_instret <- st.kernel_instret + retired;
      book_partial_counters st code retired;
      (* The interpreter counts a load/store toward [memory_retired]
         before the access that traps, and jump-to-self toward
         [control_retired] before raising Watchdog (exit markers and
         illegal words count nothing), so the raising quad needs the
         same classification on top of its completed predecessors. *)
      let rop = Array.unsafe_get code (3 + (retired lsl 2)) land (wait_flag - 1) in
      if rop >= Uop.u_lwz && rop <= Uop.u_sb then
        st.memory_retired <- st.memory_retired + 1
      else if rop = Uop.u_j_self then st.control_retired <- st.control_retired + 1
    end;
    st.n_compiled_insns <- st.n_compiled_insns + retired;
    raise e

let run_compiled st =
  let max_cycles = st.max_cycles in
  while true do
    if st.cycle >= max_cycles then raise (Exit_sim Watchdog);
    if st.pc land 3 <> 0 then
      raise (Exit_sim (Trapped (Printf.sprintf "misaligned pc 0x%x" st.pc)));
    st.pc <- st.pc land st.addr_mask;
    let idx = st.pc lsr 2 in
    let bid = Array.unsafe_get st.block_of idx in
    let bid =
      if bid >= 0 then begin
        st.n_block_hits <- st.n_block_hits + 1;
        bid
      end
      else compile_block st idx
    in
    let code = Array.unsafe_get st.blocks bid in
    if st.cycle + (max_cycles_per_insn * Array.unsafe_get code 0) >= max_cycles
    then begin
      (* close enough to the watchdog that an instruction inside the
         block could cross the budget: take the exact per-insn path *)
      st.n_fallbacks <- st.n_fallbacks + 1;
      step st
    end
    else exec_block st bid
  done

(* ---------- snapshot / restore ---------- *)

(* Everything [run] needs to continue mid-program except memory (the
   caller restores memory separately — it dwarfs the rest and diffs
   well) and the decode/block caches, which are derived state rebuilt
   lazily from memory on the first fetch of each word. Arrays are
   copied on capture AND on restore: a state's arrays serve every later
   run on it, and callers keep snapshots across many runs. *)
type snapshot = {
  snap_pc : int;
  snap_flag : bool;
  snap_cycle : int;
  snap_instret : int;
  snap_fi_on : bool;
  snap_kernel_cycles : int;
  snap_kernel_instret : int;
  snap_alu_retired : int;
  snap_class_counts : int array;
  snap_control_retired : int;
  snap_memory_retired : int;
  snap_taken_branches : int;
  snap_regs : int array;
  snap_ready : int array;
}

let capture st =
  {
    snap_pc = st.pc;
    snap_flag = st.flag;
    snap_cycle = st.cycle;
    snap_instret = st.instret;
    snap_fi_on = st.fi_on;
    snap_kernel_cycles = st.kernel_cycles;
    snap_kernel_instret = st.kernel_instret;
    snap_alu_retired = st.alu_retired;
    snap_class_counts = Array.sub st.class_counts pad Op_class.count;
    snap_control_retired = st.control_retired;
    snap_memory_retired = st.memory_retired;
    snap_taken_branches = st.taken_branches;
    snap_regs = Array.sub st.regs pad 32;
    snap_ready = Array.sub st.ready pad 32;
  }

let restore st (s : snapshot) =
  st.pc <- s.snap_pc;
  st.flag <- s.snap_flag;
  st.cycle <- s.snap_cycle;
  st.instret <- s.snap_instret;
  st.fi_on <- s.snap_fi_on;
  st.kernel_cycles <- s.snap_kernel_cycles;
  st.kernel_instret <- s.snap_kernel_instret;
  st.alu_retired <- s.snap_alu_retired;
  Array.blit s.snap_class_counts 0 st.class_counts pad Op_class.count;
  st.control_retired <- s.snap_control_retired;
  st.memory_retired <- s.snap_memory_retired;
  st.taken_branches <- s.snap_taken_branches;
  Array.blit s.snap_regs 0 st.regs pad 32;
  Array.blit s.snap_ready 0 st.ready pad 32

let snapshot_cycle (s : snapshot) = s.snap_cycle

(* ---------- states: construction, per-run reset, per-domain cache ---------- *)

let check_size fn size =
  (* Memory.create already rejects these; re-checked here because the
     fetch wrap and invalidate mask silently alias wrong addresses on a
     non-power-of-two size. *)
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg (fn ^ ": memory size must be a positive power of two")

(* A cold state for memories the size of [mem]. Everything run-specific
   is (re)set by [start]. *)
let make_state ~compiled ~trace mem =
  let size = Memory.size mem in
  let n_words = size / 4 in
  {
    mem;
    addr_mask = size - 1;
    regs = padded 32;
    pc = 0;
    flag = false;
    cycle = 0;
    instret = 0;
    fi_on = false;
    kernel_cycles = 0;
    kernel_instret = 0;
    alu_retired = 0;
    class_counts = padded Op_class.count;
    control_retired = 0;
    memory_retired = 0;
    taken_branches = 0;
    ready = padded 32;
    max_cycles = 0;
    fault_hook = None;
    trace;
    utab = Array.make (n_words * 4) Uop.u_unfilled;
    raw = Array.make n_words (-1);
    decoded = Array.make 256 0;
    n_decoded = 0;
    compiled;
    covered = (if compiled then Array.make n_words 0 else [||]);
    block_of = (if compiled then Array.make n_words (-1) else [||]);
    blocks = (if compiled then Array.make 64 [||] else [||]);
    threads = (if compiled then Array.make 64 (fun (_ : int) -> ()) else [||]);
    n_blocks = 0;
    aborted = false;
    in_use = false;
    blk_i = 0;
    blk_before = 0;
    blk_fi0 = false;
    blk_c0 = 0;
    blk_bid = 0;
    n_blocks_compiled = 0;
    n_block_hits = 0;
    n_block_flushes = 0;
    n_invalidations = 0;
    n_compiled_insns = 0;
    n_fallbacks = 0;
  }

(* Points [st] at a new run: the reset architectural state, the run's
   configuration, and caches validated against [mem]. *)
let start st (config : config) mem ~entry =
  st.mem <- mem;
  Array.fill st.regs pad 32 0;
  Array.fill st.ready pad 32 0;
  st.pc <- entry;
  st.flag <- false;
  st.cycle <- 0;
  st.instret <- 0;
  st.fi_on <- false;
  st.kernel_cycles <- 0;
  st.kernel_instret <- 0;
  st.alu_retired <- 0;
  Array.fill st.class_counts pad Op_class.count 0;
  st.control_retired <- 0;
  st.memory_retired <- 0;
  st.taken_branches <- 0;
  st.max_cycles <- config.max_cycles;
  st.fault_hook <- config.fault_hook;
  st.aborted <- false;
  st.n_blocks_compiled <- 0;
  st.n_block_hits <- 0;
  st.n_block_flushes <- 0;
  st.n_invalidations <- 0;
  st.n_compiled_insns <- 0;
  st.n_fallbacks <- 0;
  validate st

(* The per-domain cache: one compiled-engine state per memory size,
   created on first use. Domains never share a state, so the
   cache needs no lock; [in_use] catches re-entrant runs on one domain. *)
let domain_states : state list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec find_state size = function
  | [] -> None
  | st :: rest -> if st.addr_mask = size - 1 then Some st else find_state size rest

let cached_state mem =
  let states = Domain.DLS.get domain_states in
  match find_state (Memory.size mem) !states with
  | Some st -> st
  | None ->
    let st = make_state ~compiled:true ~trace:None mem in
    states := st :: !states;
    st

let execute st config ?resume mem ~entry =
  start st config mem ~entry;
  (match resume with None -> () | Some s -> restore st s);
  try
    if st.compiled then run_compiled st else run_interp st;
    assert false
  with
  | Exit_sim outcome -> finish st outcome
  | Memory.Trap msg -> finish st (Trapped msg)

let run ?(config = default_config) ?resume mem ~entry =
  check_size "Cpu.run" (Memory.size mem);
  let st = cached_state mem in
  if st.in_use then
    (* re-entrant: a hook of the run that holds this domain's state is
       running the ISS *)
    execute (make_state ~compiled:true ~trace:None mem) config ?resume mem ~entry
  else begin
    st.in_use <- true;
    match execute st config ?resume mem ~entry with
    | stats ->
      st.in_use <- false;
      stats
    | exception e ->
      st.in_use <- false;
      raise e
  end

let run_reference ?(config = default_config) ?trace ?resume mem ~entry =
  check_size "Cpu.run_reference" (Memory.size mem);
  execute (make_state ~compiled:false ~trace mem) config ?resume mem ~entry

(* Interpreter-only run that hands a snapshot of the pre-instruction
   state to [on_snapshot] at every [stride]-cycle boundary (cycle 0
   included, so there is always a snapshot at or before any target
   cycle). A boundary falling inside a multi-cycle instruction (stalls,
   branch penalty) is captured at the next instruction fetch — the
   first point where the architectural state is well-defined — so a
   snapshot's cycle can exceed its nominal boundary; consumers must
   select by [snapshot_cycle], not by index arithmetic. Runs on a
   private state: it records once per program, and [on_snapshot] may
   itself run the ISS. *)
let run_recording ?(config = default_config) ~stride ~on_snapshot mem ~entry =
  if stride <= 0 then invalid_arg "Cpu.run_recording: stride must be positive";
  check_size "Cpu.run_recording" (Memory.size mem);
  let st = make_state ~compiled:false ~trace:None mem in
  start st config mem ~entry;
  let next = ref 0 in
  try
    while true do
      if st.cycle >= !next then begin
        on_snapshot (capture st);
        next := ((st.cycle / stride) + 1) * stride
      end;
      step st
    done;
    assert false
  with
  | Exit_sim outcome -> finish st outcome
  | Memory.Trap msg -> finish st (Trapped msg)

let ipc stats =
  if stats.cycles = 0 then 0. else float_of_int stats.instret /. float_of_int stats.cycles
