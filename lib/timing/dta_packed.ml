open Sfi_netlist

(* Bit-parallel dynamic timing analysis by levelized waveform walking.

   Net state lives in [Bitsim] words — bit [l] of [words.(net)] is the
   net's value in lane [l] — and each cycle builds, per net, the net's
   *transition waveform*: the sorted list of (event key, lane mask)
   pairs saying which lanes toggled at which instant. Because the
   circuit is acyclic, a gate's output waveform is a pure function of
   its input waveforms, so one pass over the compiled (level, kind)
   schedule of [Circuit.freeze] computes every waveform with plain
   linear merges — no global event heap at all. For each gate the walk
   performs exactly the distinct (gate, time) evaluations the scalar
   event-driven [Dta] performs across all lanes, merged into one word
   op each; gates whose inputs never toggle (the vast majority, under
   operand-dependent switching) are skipped with a few array loads.

   Per trigger instant [u] (an input transition in some lanes), the
   gate evaluates at [tau = u + delay] on the input values *at* [tau] —
   input transitions with key <= tau are folded into local operand
   words first — and commits [(new lxor current) land trigger_mask]:
   lanes outside the trigger mask keep their own event chains. This is
   the evaluate-at-pop inertial-delay semantics of the scalar engine
   (a pulse shorter than the gate delay evaluates to no net change and
   is filtered), restated per waveform instead of per heap pop.

   Time arithmetic is copied verbatim from [Dta] (delays pre-scaled by
   2^-32 at [create], event keys are the IEEE-754 bit patterns of the
   scaled sums — nonnegative, so integer compares order them), so every
   lane's event times and settle times are bit-identical to the scalar
   engine's. The one caveat is evaluation order among *equal* keys: a
   dependent same-instant pair could resolve in a different order than
   a scalar run's heap tie. Such ties require two distinct delay-path
   sums to be float-equal, which the per-gate process variation applied
   to every production netlist makes unobservable; the differential
   tests pin bit-identity on exactly those sized netlists.

   Settle times are tracked per lane only for a [watch] subset of nets
   (default: the primary outputs — the only timing endpoints), read off
   the watched nets' completed waveforms.

   The waveform arena is paged. Pages of [page_size] entries are
   allocated on demand and kept for the instance's life. A net's region
   lives in one page: a region that would cross a page end moves whole
   to the next page, and a region longer than a page gets an oversized
   page. Walkers read each input's region from that input's page, and
   no page is reallocated during a cycle. The footprint is the largest
   cycle's transitions (up to ~616 k for a 63-lane uniform32 mul sweep)
   plus the page tails that moves leave behind, with no growth garbage.

   An instance holds no per-class state: the ALU's class selects are
   inputs, and [prime] settles every net from the staged inputs alone.
   [Characterize] therefore runs each 63-lane sweep of a class's trial
   chain as its own pool task, on whichever instance the task borrows,
   staging the selects and the sweep's predecessor operands (the
   chain's carry) before [prime]. Measured on a 2-core host at 2000
   cycles per class: a serial characterization peaks at 47 MB VmHWM
   instead of 65 MB, and at two jobs the run mostly takes 0.83–1.02 s
   at 60 MB instead of 1.75–1.87 s at 68 MB with one task per class. *)

type t = {
  circuit : Circuit.t;
  delay : float array; (* per gate, ps at the chosen voltage, × 2^-32 *)
  words : int array;
      (* per net, one value bit per lane; during [cycle] this holds the
         cycle-START state (commits are deferred to the end of the
         pass so every gate walk starts from a consistent snapshot) *)
  (* Per-cycle waveform arena, in pages allocated on demand and kept
     for the instance's life: net [n]'s transitions are the contiguous
     entries [net_off.(n) .. net_off.(n) + net_len.(n) - 1] of page
     [net_page.(n)] (valid iff [net_gen.(n)] is current), sorted by
     key. Contiguity holds because a net's transitions are appended
     only while its single driver gate (or the input-staging loop) is
     being processed; a region that would cross a page end moves whole
     to the next page ([move_region]). A page's arrays are never
     reallocated, so a walker reads each input's region from that
     input's page while the output region is appended. *)
  mutable page_key : float array array; (* scaled times, like [delay] *)
  mutable page_mask : int array array;
  mutable n_pages : int;
  mutable cur : int; (* the page being filled *)
  mutable cur_key : float array; (* [page_key.(cur)] *)
  mutable cur_mask : int array; (* [page_mask.(cur)] *)
  mutable fill : int; (* entries used in the current page *)
  net_page : int array;
  net_off : int array;
  net_len : int array;
  net_gen : int array;
  touched : int array; (* nets with transitions this cycle *)
  mutable touched_n : int;
  mutable gen : int;
  (* Per-lane settle times for watched nets: [watch_ix] maps a net to a
     dense index or -1; watched net [w]'s lane [l] settle lives at
     [w_time.(w * lanes + l)], valid iff [w_gen.(w)] is current and bit
     [l] of [w_mask.(w)] is set. *)
  watch_ix : int array;
  w_gen : int array;
  w_mask : int array;
  w_time : float array; (* scaled, like [delay] *)
  is_input : bool array;
  mutable staged_net : int array;
  mutable staged_word : int array;
  mutable staged_n : int;
  mutable words_evaled : int; (* packed gate evaluations *)
  mutable lane_events : int; (* scalar-equivalent events: trigger-mask bits *)
}

(* Work counters for the packed kernel, mirroring the dta.* family: how
   much packed work ran depends on the characterization cache, so both
   are ~det:false (excluded from the determinism signature). The
   [bitsim.words] / [dta.events] ratio is the measured lane merge
   factor. *)
let obs_words = Sfi_obs.Counter.make ~det:false "bitsim.words"

let obs_lane_events = Sfi_obs.Counter.make ~det:false "bitsim.lane_events"

(* Waveform regions moved to the next arena page because they would
   have crossed a page end (a property of the stimulus and [page_size];
   ~det:false like the work counters above). *)
let obs_page_moves = Sfi_obs.Counter.make ~det:false "bitsim.page_moves"

(* Entries per standard arena page (16 bytes each: a key and a mask). *)
let page_size = 4096

let create ?(vdd = Vdd_model.nominal_voltage) ?(vdd_model = Vdd_model.default)
    ?(lib = Cell_lib.default) ?watch (c : Circuit.t) =
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
  let words = Bitsim.make_words c in
  (* Same starting point as [Dta.create]: the stable all-low state, here
     established in every lane at once by one functional pass. *)
  Bitsim.eval_levels c words;
  let is_input = Array.make c.Circuit.n_nets false in
  Array.iter (fun (_, n) -> is_input.(n) <- true) c.Circuit.pis;
  let watch_nets =
    match watch with Some nets -> nets | None -> Array.map snd c.Circuit.pos
  in
  let watch_ix = Array.make c.Circuit.n_nets (-1) in
  Array.iteri (fun w net -> watch_ix.(net) <- w) watch_nets;
  let n_watch = Array.length watch_nets in
  let first_key = Array.make page_size 0. and first_mask = Array.make page_size 0 in
  {
    circuit = c;
    delay;
    words;
    page_key = Array.make 16 first_key;
    page_mask = Array.make 16 first_mask;
    n_pages = 1;
    cur = 0;
    cur_key = first_key;
    cur_mask = first_mask;
    fill = 0;
    net_page = Array.make c.Circuit.n_nets 0;
    net_off = Array.make c.Circuit.n_nets 0;
    net_len = Array.make c.Circuit.n_nets 0;
    net_gen = Array.make c.Circuit.n_nets 0;
    touched = Array.make c.Circuit.n_nets 0;
    touched_n = 0;
    gen = 0;
    watch_ix;
    w_gen = Array.make (max 1 n_watch) 0;
    w_mask = Array.make (max 1 n_watch) 0;
    w_time = Array.make (max 1 (n_watch * Bitsim.lanes)) 0.;
    is_input;
    staged_net = Array.make 64 0;
    staged_word = Array.make 64 0;
    staged_n = 0;
    words_evaled = 0;
    lane_events = 0;
  }

let set_input_word t net word =
  if net < 0 || net >= Array.length t.words || not t.is_input.(net) then
    invalid_arg "Dta_packed.set_input_word: not a primary input";
  if t.staged_n = Array.length t.staged_net then begin
    let n = Array.length t.staged_net in
    let nn = Array.make (2 * n) 0 and nw = Array.make (2 * n) 0 in
    Array.blit t.staged_net 0 nn 0 n;
    Array.blit t.staged_word 0 nw 0 n;
    t.staged_net <- nn;
    t.staged_word <- nw
  end;
  t.staged_net.(t.staged_n) <- net;
  t.staged_word.(t.staged_n) <- word;
  t.staged_n <- t.staged_n + 1

(* Apply staged words and settle all lanes functionally, without
   timing: one levelized pass instead of an event cascade. Used to
   (re)establish each lane's pre-cycle state — the fixpoint an acyclic
   circuit's event simulation converges to — before a timed [cycle]. *)
let prime t =
  for i = 0 to t.staged_n - 1 do
    t.words.(t.staged_net.(i)) <- t.staged_word.(i)
  done;
  t.staged_n <- 0;
  Bitsim.eval_levels t.circuit t.words

(* Makes page [at] a fresh page of [capacity] entries. A page already
   in that slot (unused this cycle: slots above [cur] are) moves to a
   new slot at the end, so every page allocated stays in the arena. *)
let add_page t ~at capacity =
  if t.n_pages = Array.length t.page_key then begin
    let n = t.n_pages in
    let nk = Array.make (2 * n) t.cur_key and nm = Array.make (2 * n) t.cur_mask in
    Array.blit t.page_key 0 nk 0 n;
    Array.blit t.page_mask 0 nm 0 n;
    t.page_key <- nk;
    t.page_mask <- nm
  end;
  t.page_key.(t.n_pages) <- t.page_key.(at);
  t.page_mask.(t.n_pages) <- t.page_mask.(at);
  t.page_key.(at) <- Array.make capacity 0.;
  t.page_mask.(at) <- Array.make capacity 0;
  t.n_pages <- t.n_pages + 1

(* The current page is full in the middle of [net]'s region: move the
   region (the page's tail) whole to the start of the next page, which
   is allocated on first use. A region that fills a page by itself gets
   an oversized page of twice its length in that slot. *)
let move_region t net =
  let off = t.net_off.(net) and len = t.net_len.(net) in
  let next = t.cur + 1 in
  if next = t.n_pages || Array.length t.page_key.(next) <= len then
    add_page t ~at:next (if len < page_size then page_size else 2 * len);
  let nk = t.page_key.(next) and nm = t.page_mask.(next) in
  if len > 0 then begin
    Array.blit t.cur_key off nk 0 len;
    Array.blit t.cur_mask off nm 0 len;
    Sfi_obs.Counter.incr obs_page_moves
  end;
  t.net_page.(net) <- next;
  t.net_off.(net) <- 0;
  t.cur <- next;
  t.cur_key <- nk;
  t.cur_mask <- nm;
  t.fill <- len

(* Appends one transition to [net]'s waveform. *)
let append_transition t net key mask =
  if t.net_gen.(net) <> t.gen then begin
    t.net_gen.(net) <- t.gen;
    t.net_page.(net) <- t.cur;
    t.net_off.(net) <- t.fill;
    t.net_len.(net) <- 0;
    t.touched.(t.touched_n) <- net;
    t.touched_n <- t.touched_n + 1
  end;
  if t.fill = Array.length t.cur_key then move_region t net;
  t.cur_key.(t.fill) <- key;
  t.cur_mask.(t.fill) <- mask;
  t.fill <- t.fill + 1;
  t.net_len.(net) <- t.net_len.(net) + 1

(* The per-gate waveform walks, specialized by arity (a segment's kind
   fixes the arity, so [cycle] picks the walker once per segment):
   merge the input waveform regions in key order; at each distinct
   trigger key [u], evaluate at [tau = u + delay] — with identical
   arithmetic to [Dta.schedule_readers] — after folding input
   transitions with key <= tau into the local operand words, and
   commit the masked difference. Sentinel [max_int] exceeds every real
   key (bit patterns of nonnegative doubles stay below 2^62). *)

let walk1 t code gi n1 o1 e1 =
  let pg = Array.unsafe_get t.net_page n1 in
  let tk = Array.unsafe_get t.page_key pg and tm = Array.unsafe_get t.page_mask pg in
  let d = Array.unsafe_get t.delay gi in
  let out_net = Array.unsafe_get t.circuit.Circuit.gate_out gi in
  let a = ref (Array.unsafe_get t.words n1) in
  let out = ref (Array.unsafe_get t.words out_net) in
  let q = ref o1 in
  let evals = ref 0 and lanes_hit = ref 0 in
  for p = o1 to e1 - 1 do
    let u = Array.unsafe_get tk p in
    let tmask = Array.unsafe_get tm p in
    let tau = u +. d in
    while !q < e1 && Array.unsafe_get tk !q <= tau do
      a := !a lxor Array.unsafe_get tm !q;
      incr q
    done;
    incr evals;
    let m = ref tmask in
    while !m <> 0 do
      incr lanes_hit;
      m := !m land (!m - 1)
    done;
    let nw = if code = 0 then lnot !a else !a in
    let diff = (nw lxor !out) land tmask in
    if diff <> 0 then begin
      out := !out lxor diff;
      append_transition t out_net tau diff
    end
  done;
  t.words_evaled <- t.words_evaled + !evals;
  t.lane_events <- t.lane_events + !lanes_hit

let walk2 t code gi n1 o1 e1 n2 o2 e2 =
  let pg1 = Array.unsafe_get t.net_page n1 in
  let pg2 = Array.unsafe_get t.net_page n2 in
  let tk1 = Array.unsafe_get t.page_key pg1 and tm1 = Array.unsafe_get t.page_mask pg1 in
  let tk2 = Array.unsafe_get t.page_key pg2 and tm2 = Array.unsafe_get t.page_mask pg2 in
  let d = Array.unsafe_get t.delay gi in
  let out_net = Array.unsafe_get t.circuit.Circuit.gate_out gi in
  let a = ref (Array.unsafe_get t.words n1)
  and b = ref (Array.unsafe_get t.words n2) in
  let out = ref (Array.unsafe_get t.words out_net) in
  let p1 = ref o1 and p2 = ref o2 in
  let q1 = ref o1 and q2 = ref o2 in
  let evals = ref 0 and lanes_hit = ref 0 in
  while !p1 < e1 || !p2 < e2 do
    let k1 = if !p1 < e1 then Array.unsafe_get tk1 !p1 else infinity in
    let k2 = if !p2 < e2 then Array.unsafe_get tk2 !p2 else infinity in
    let u = if k1 < k2 then k1 else k2 in
    let tmask = ref 0 in
    if k1 = u then begin
      tmask := Array.unsafe_get tm1 !p1;
      incr p1
    end;
    if k2 = u then begin
      tmask := !tmask lor Array.unsafe_get tm2 !p2;
      incr p2
    end;
    let tau = u +. d in
    while !q1 < e1 && Array.unsafe_get tk1 !q1 <= tau do
      a := !a lxor Array.unsafe_get tm1 !q1;
      incr q1
    done;
    while !q2 < e2 && Array.unsafe_get tk2 !q2 <= tau do
      b := !b lxor Array.unsafe_get tm2 !q2;
      incr q2
    done;
    incr evals;
    let m = ref !tmask in
    while !m <> 0 do
      incr lanes_hit;
      m := !m land (!m - 1)
    done;
    let nw =
      match code with
      | 2 -> lnot (!a land !b)
      | 3 -> lnot (!a lor !b)
      | 4 -> !a land !b
      | 5 -> !a lor !b
      | 6 -> !a lxor !b
      | _ -> lnot (!a lxor !b)
    in
    let diff = (nw lxor !out) land !tmask in
    if diff <> 0 then begin
      out := !out lxor diff;
      append_transition t out_net tau diff
    end
  done;
  t.words_evaled <- t.words_evaled + !evals;
  t.lane_events <- t.lane_events + !lanes_hit

let walk3 t code gi n1 o1 e1 n2 o2 e2 n3 o3 e3 =
  let pg1 = Array.unsafe_get t.net_page n1 in
  let pg2 = Array.unsafe_get t.net_page n2 in
  let pg3 = Array.unsafe_get t.net_page n3 in
  let tk1 = Array.unsafe_get t.page_key pg1 and tm1 = Array.unsafe_get t.page_mask pg1 in
  let tk2 = Array.unsafe_get t.page_key pg2 and tm2 = Array.unsafe_get t.page_mask pg2 in
  let tk3 = Array.unsafe_get t.page_key pg3 and tm3 = Array.unsafe_get t.page_mask pg3 in
  let d = Array.unsafe_get t.delay gi in
  let out_net = Array.unsafe_get t.circuit.Circuit.gate_out gi in
  let a = ref (Array.unsafe_get t.words n1)
  and b = ref (Array.unsafe_get t.words n2)
  and cv = ref (Array.unsafe_get t.words n3) in
  let out = ref (Array.unsafe_get t.words out_net) in
  let p1 = ref o1 and p2 = ref o2 and p3 = ref o3 in
  let q1 = ref o1 and q2 = ref o2 and q3 = ref o3 in
  let evals = ref 0 and lanes_hit = ref 0 in
  while !p1 < e1 || !p2 < e2 || !p3 < e3 do
    let k1 = if !p1 < e1 then Array.unsafe_get tk1 !p1 else infinity in
    let k2 = if !p2 < e2 then Array.unsafe_get tk2 !p2 else infinity in
    let k3 = if !p3 < e3 then Array.unsafe_get tk3 !p3 else infinity in
    let u = if k1 < k2 then (if k1 < k3 then k1 else k3)
            else if k2 < k3 then k2 else k3 in
    let tmask = ref 0 in
    if k1 = u then begin
      tmask := Array.unsafe_get tm1 !p1;
      incr p1
    end;
    if k2 = u then begin
      tmask := !tmask lor Array.unsafe_get tm2 !p2;
      incr p2
    end;
    if k3 = u then begin
      tmask := !tmask lor Array.unsafe_get tm3 !p3;
      incr p3
    end;
    let tau = u +. d in
    while !q1 < e1 && Array.unsafe_get tk1 !q1 <= tau do
      a := !a lxor Array.unsafe_get tm1 !q1;
      incr q1
    done;
    while !q2 < e2 && Array.unsafe_get tk2 !q2 <= tau do
      b := !b lxor Array.unsafe_get tm2 !q2;
      incr q2
    done;
    while !q3 < e3 && Array.unsafe_get tk3 !q3 <= tau do
      cv := !cv lxor Array.unsafe_get tm3 !q3;
      incr q3
    done;
    incr evals;
    let m = ref !tmask in
    while !m <> 0 do
      incr lanes_hit;
      m := !m land (!m - 1)
    done;
    let nw =
      match code with
      | 8 -> (!a land !cv) lor (lnot !a land !b)
      | 9 -> lnot ((!a land !b) lor !cv)
      | _ -> lnot ((!a lor !b) land !cv)
    in
    let diff = (nw lxor !out) land !tmask in
    if diff <> 0 then begin
      out := !out lxor diff;
      append_transition t out_net tau diff
    end
  done;
  t.words_evaled <- t.words_evaled + !evals;
  t.lane_events <- t.lane_events + !lanes_hit

(* After a watched net's waveform is complete: the settle time of every
   lane that toggled is its last toggle time (a forward overwrite —
   entries are in increasing key order). *)
let record_settles t wi tk tm off len =
  if t.w_gen.(wi) <> t.gen then begin
    t.w_gen.(wi) <- t.gen;
    t.w_mask.(wi) <- 0
  end;
  let base = wi * Bitsim.lanes in
  for j = off to off + len - 1 do
    let mask = Array.unsafe_get tm j in
    t.w_mask.(wi) <- t.w_mask.(wi) lor mask;
    let time = Array.unsafe_get tk j in
    let d = ref mask in
    while !d <> 0 do
      let l = Bitsim.ctz !d in
      Array.unsafe_set t.w_time (base + l) time;
      d := !d land (!d - 1)
    done
  done

let cycle t =
  t.gen <- t.gen + 1;
  t.cur <- 0;
  t.cur_key <- t.page_key.(0);
  t.cur_mask <- t.page_mask.(0);
  t.fill <- 0;
  t.touched_n <- 0;
  let words0 = t.words_evaled and lanes0 = t.lane_events in
  (* Primary-input transitions launch at t = 0 (key 0 = bits of 0.0),
     each lane exactly where its staged word differs from its current
     value. The commit to [words] is deferred with all the others. *)
  for i = 0 to t.staged_n - 1 do
    let net = Array.unsafe_get t.staged_net i in
    let diff = Array.unsafe_get t.staged_word i lxor Array.unsafe_get t.words net in
    if diff <> 0 then append_transition t net 0. diff
  done;
  t.staged_n <- 0;
  (* One pass over the compiled schedule; a segment's kind fixes both
     the gate function and the arity, so each segment runs the matching
     walker with the quiet-gate skip inlined. *)
  let c = t.circuit in
  let sched = c.Circuit.sched_gate in
  let seg_off = c.Circuit.seg_off in
  let seg_kind = c.Circuit.seg_kind in
  let fo = c.Circuit.fanin_off in
  let ins = c.Circuit.fanin_net in
  let net_gen = t.net_gen and net_off = t.net_off and net_len = t.net_len in
  let gen = t.gen in
  for s = 0 to Array.length seg_kind - 1 do
    let code = Array.unsafe_get seg_kind s in
    let lo = Array.unsafe_get seg_off s in
    let hi = Array.unsafe_get seg_off (s + 1) - 1 in
    if code <= 1 then
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        let n1 = Array.unsafe_get ins (Array.unsafe_get fo gi) in
        if Array.unsafe_get net_gen n1 = gen then begin
          let o1 = Array.unsafe_get net_off n1 in
          walk1 t code gi n1 o1 (o1 + Array.unsafe_get net_len n1)
        end
      done
    else if code <= 7 then
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        let f = Array.unsafe_get fo gi in
        let n1 = Array.unsafe_get ins f in
        let n2 = Array.unsafe_get ins (f + 1) in
        let l1 = if Array.unsafe_get net_gen n1 = gen then Array.unsafe_get net_len n1 else 0 in
        let l2 = if Array.unsafe_get net_gen n2 = gen then Array.unsafe_get net_len n2 else 0 in
        if l1 lor l2 <> 0 then begin
          let o1 = if l1 > 0 then Array.unsafe_get net_off n1 else 0 in
          let o2 = if l2 > 0 then Array.unsafe_get net_off n2 else 0 in
          walk2 t code gi n1 o1 (o1 + l1) n2 o2 (o2 + l2)
        end
      done
    else
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        let f = Array.unsafe_get fo gi in
        let n1 = Array.unsafe_get ins f in
        let n2 = Array.unsafe_get ins (f + 1) in
        let n3 = Array.unsafe_get ins (f + 2) in
        let l1 = if Array.unsafe_get net_gen n1 = gen then Array.unsafe_get net_len n1 else 0 in
        let l2 = if Array.unsafe_get net_gen n2 = gen then Array.unsafe_get net_len n2 else 0 in
        let l3 = if Array.unsafe_get net_gen n3 = gen then Array.unsafe_get net_len n3 else 0 in
        if l1 lor l2 lor l3 <> 0 then begin
          let o1 = if l1 > 0 then Array.unsafe_get net_off n1 else 0 in
          let o2 = if l2 > 0 then Array.unsafe_get net_off n2 else 0 in
          let o3 = if l3 > 0 then Array.unsafe_get net_off n3 else 0 in
          walk3 t code gi n1 o1 (o1 + l1) n2 o2 (o2 + l2) n3 o3 (o3 + l3)
        end
      done
  done;
  (* Commit: each touched net's final value is its start value XOR all
     its toggles; watched nets also record per-lane settle times. *)
  for i = 0 to t.touched_n - 1 do
    let n = Array.unsafe_get t.touched i in
    let pg = Array.unsafe_get t.net_page n in
    let tm = Array.unsafe_get t.page_mask pg in
    let off = Array.unsafe_get t.net_off n in
    let len = Array.unsafe_get t.net_len n in
    let acc = ref 0 in
    for j = off to off + len - 1 do
      acc := !acc lxor Array.unsafe_get tm j
    done;
    Array.unsafe_set t.words n (Array.unsafe_get t.words n lxor !acc);
    let wi = Array.unsafe_get t.watch_ix n in
    if wi >= 0 then record_settles t wi (Array.unsafe_get t.page_key pg) tm off len
  done;
  if Sfi_obs.enabled () then begin
    Sfi_obs.Counter.add obs_words (t.words_evaled - words0);
    Sfi_obs.Counter.add obs_lane_events (t.lane_events - lanes0)
  end

let value t net ~lane = (t.words.(net) lsr lane) land 1 = 1

let read_lane_vec t nets ~lane = Bitsim.read_lane t.words nets ~lane

let settle_time t net ~lane =
  match t.watch_ix.(net) with
  | -1 -> invalid_arg "Dta_packed.settle_time: net is not watched"
  | wi ->
    if t.w_gen.(wi) = t.gen && (t.w_mask.(wi) lsr lane) land 1 = 1 then
      t.w_time.((wi * Bitsim.lanes) + lane) *. 0x1p32
    else 0.

