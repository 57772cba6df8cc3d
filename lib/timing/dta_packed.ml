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
   2^-32 at [create]; keys are the scaled float sums, all nonnegative),
   so every lane's event times and settle times are bit-identical to the
   scalar engine's. The one caveat is evaluation order among *equal*
   keys: a dependent same-instant pair could resolve in a different
   order than a scalar run's heap tie. Such ties require two distinct
   delay-path sums to be float-equal, which the per-gate process
   variation applied to every production netlist makes unobservable;
   the differential tests pin bit-identity on exactly those sized
   netlists, and on generated netlists with jittered delays.

   Settle times are tracked per lane only for a [watch] subset of nets
   (default: the primary outputs — the only timing endpoints), read off
   the watched nets' completed waveforms.

   A walk costs its evaluations and little else. Each region in the
   arena is closed by a sentinel entry [(infinity, 0)], and a net with
   no transitions this cycle reads one shared empty region (slot 0 of
   page 0), so the walkers merge and fold with no bounds tests. Before a
   walk, the output region is opened with room for every evaluation the
   walk can make (the sum of its input lengths) plus the sentinel; each
   evaluation then writes its [(tau, diff)] unconditionally and advances
   the fill only when [diff <> 0]. The trigger mask is built from
   [Bool.to_int] comparison masks, each fold's first step is branch-free
   too, and evaluations and lane events are counted only while
   observability is on. Nothing in [cycle] allocates once the arena has
   grown to the stimulus (pinned by a [Gc.minor_words] test).

   The waveform arena is paged. Pages of [page_size] entries are
   allocated on demand and kept for the instance's life. A walk whose
   worst case does not fit in the rest of the current page starts on the
   next page, which is replaced by an oversized page when it is too
   small; a region therefore never crosses a page end and never moves.
   Walkers read each input's region from that input's page, and no page
   is reallocated during a cycle. The footprint is the largest cycle's
   transitions (up to ~616 k for a 63-lane uniform32 mul sweep) plus the
   page tails that switches leave behind, with no growth garbage.

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
     [net_page.(n)], sorted by key and followed by a sentinel entry
     [(infinity, 0)]. A net without transitions this cycle has length 0
     at offset 0 of page 0, whose slot 0 holds the sentinel for good
     (every cycle's fill starts at 1, and page 0 is never replaced);
     the commit at the end of [cycle] returns every touched net there.
     A page's arrays are never reallocated, so a walker reads each
     input's region from that input's page while it writes the output
     region. *)
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
  touched : int array; (* nets with a region this cycle *)
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
}

(* Work counters for the packed kernel, mirroring the dta.* family: how
   much packed work ran depends on the characterization cache, so both
   are ~det:false (excluded from the determinism signature). The
   [bitsim.words] / [dta.events] ratio is the measured lane merge
   factor. *)
let obs_words = Sfi_obs.Counter.make ~det:false "bitsim.words"

let obs_lane_events = Sfi_obs.Counter.make ~det:false "bitsim.lane_events"

(* Walks (and input regions) that start on the next arena page because
   the rest of the current one cannot hold their worst case (a property
   of the stimulus and [page_size]; ~det:false like the work counters
   above). *)
let obs_page_switches = Sfi_obs.Counter.make ~det:false "bitsim.page_switches"

(* Entries per standard arena page (16 bytes each: a key and a mask). *)
let page_size = 4096

(* Set bits of a 63-bit word (SWAR), inlined into the walkers' counting
   branch: calling [Bitsim.popcount] there made a counted mul sweep
   ~20% slower. *)
let[@inline] popcount w =
  let x = w - ((w lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

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
  (* The shared empty region. *)
  first_key.(0) <- infinity;
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
    fill = 1;
    net_page = Array.make c.Circuit.n_nets 0;
    net_off = Array.make c.Circuit.n_nets 0;
    net_len = Array.make c.Circuit.n_nets 0;
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

(* Makes room for [need] entries at [t.fill]: in the current page if it
   has them, else at the start of the next page, which is allocated on
   first use and replaced by an oversized page (twice [need]) when it is
   too small. *)
let reserve t need =
  if t.fill + need > Array.length t.cur_key then begin
    let next = t.cur + 1 in
    if next = t.n_pages || Array.length t.page_key.(next) < need then
      add_page t ~at:next (if need <= page_size then page_size else 2 * need);
    t.cur <- next;
    t.cur_key <- t.page_key.(next);
    t.cur_mask <- t.page_mask.(next);
    t.fill <- 0;
    Sfi_obs.Counter.incr obs_page_switches
  end

(* Gives [net] the [len] > 0 entries of the current page from [off] as
   its waveform, closes the region with the sentinel and advances the
   fill past it. Each net gets at most one region per cycle. *)
let close_region t net off len =
  let e = off + len in
  Array.unsafe_set t.cur_key e infinity;
  Array.unsafe_set t.cur_mask e 0;
  t.fill <- e + 1;
  t.net_page.(net) <- t.cur;
  t.net_off.(net) <- off;
  t.net_len.(net) <- len;
  t.touched.(t.touched_n) <- net;
  t.touched_n <- t.touched_n + 1

(* The per-gate waveform walks, specialized by arity (a segment's kind
   fixes the arity, so [cycle] picks the walker once per segment):
   merge the input waveform regions in key order; at each distinct
   trigger key [u], evaluate at [tau = u + delay] — with identical
   arithmetic to [Dta.schedule_readers] — after folding input
   transitions with key <= tau into the local operand words, and
   commit the masked difference. An input whose next key is the least
   is a trigger; equal keys merge into one evaluation. The sentinels
   (key [infinity], above every real key) end each fold and drop an
   exhausted input out of the trigger masks, so the merge runs until
   every input reaches its sentinel. Each fold takes its first step
   without a branch and loops only for further entries: in a 63-lane
   mul sweep, 61% of the evaluations fold nothing from the first input
   and 82% nothing from the second, and few fold more than one. With
   [count], a walk adds its evaluations and trigger-mask bits to the
   work counters. *)

let walk1 t count code gi n1 =
  let pg = Array.unsafe_get t.net_page n1 in
  let tk = Array.unsafe_get t.page_key pg and tm = Array.unsafe_get t.page_mask pg in
  let o1 = Array.unsafe_get t.net_off n1 in
  let e1 = o1 + Array.unsafe_get t.net_len n1 in
  reserve t (e1 - o1 + 1);
  let ok = t.cur_key and om = t.cur_mask and start = t.fill in
  let d = Array.unsafe_get t.delay gi in
  let out_net = Array.unsafe_get t.circuit.Circuit.gate_out gi in
  (* Inv (code 0) or Buf. *)
  let inv = if code = 0 then -1 else 0 in
  let a = ref (Array.unsafe_get t.words n1) in
  let out = ref (Array.unsafe_get t.words out_net) in
  let q = ref o1 and w = ref start and lanes = ref 0 in
  for p = o1 to e1 - 1 do
    let tmask = Array.unsafe_get tm p in
    let tau = Array.unsafe_get tk p +. d in
    let c = Bool.to_int (Array.unsafe_get tk !q <= tau) in
    a := !a lxor (Array.unsafe_get tm !q land -c);
    q := !q + c;
    while Array.unsafe_get tk !q <= tau do
      a := !a lxor Array.unsafe_get tm !q;
      incr q
    done;
    if count then lanes := !lanes + popcount tmask;
    let diff = ((!a lxor inv) lxor !out) land tmask in
    out := !out lxor diff;
    Array.unsafe_set ok !w tau;
    Array.unsafe_set om !w diff;
    w := !w + Bool.to_int (diff <> 0)
  done;
  if count then begin
    Sfi_obs.Counter.add obs_words (e1 - o1);
    Sfi_obs.Counter.add obs_lane_events !lanes
  end;
  if !w > start then close_region t out_net start (!w - start)

let walk2 t count code gi n1 n2 =
  let pg1 = Array.unsafe_get t.net_page n1 in
  let pg2 = Array.unsafe_get t.net_page n2 in
  let tk1 = Array.unsafe_get t.page_key pg1 and tm1 = Array.unsafe_get t.page_mask pg1 in
  let tk2 = Array.unsafe_get t.page_key pg2 and tm2 = Array.unsafe_get t.page_mask pg2 in
  let o1 = Array.unsafe_get t.net_off n1 and o2 = Array.unsafe_get t.net_off n2 in
  let e1 = o1 + Array.unsafe_get t.net_len n1 in
  let e2 = o2 + Array.unsafe_get t.net_len n2 in
  reserve t (e1 - o1 + e2 - o2 + 1);
  let ok = t.cur_key and om = t.cur_mask and start = t.fill in
  let d = Array.unsafe_get t.delay gi in
  let out_net = Array.unsafe_get t.circuit.Circuit.gate_out gi in
  let a = ref (Array.unsafe_get t.words n1)
  and b = ref (Array.unsafe_get t.words n2) in
  let out = ref (Array.unsafe_get t.words out_net) in
  let p1 = ref o1 and p2 = ref o2 in
  let q1 = ref o1 and q2 = ref o2 in
  let w = ref start and evals = ref 0 and lanes = ref 0 in
  let stop = e1 + e2 in
  while !p1 + !p2 < stop do
    let k1 = Array.unsafe_get tk1 !p1 and k2 = Array.unsafe_get tk2 !p2 in
    let t1 = Bool.to_int (k1 <= k2) and t2 = Bool.to_int (k2 <= k1) in
    let tmask =
      (Array.unsafe_get tm1 !p1 land -t1) lor (Array.unsafe_get tm2 !p2 land -t2)
    in
    p1 := !p1 + t1;
    p2 := !p2 + t2;
    let tau = (if k1 <= k2 then k1 else k2) +. d in
    let c1 = Bool.to_int (Array.unsafe_get tk1 !q1 <= tau) in
    a := !a lxor (Array.unsafe_get tm1 !q1 land -c1);
    q1 := !q1 + c1;
    let c2 = Bool.to_int (Array.unsafe_get tk2 !q2 <= tau) in
    b := !b lxor (Array.unsafe_get tm2 !q2 land -c2);
    q2 := !q2 + c2;
    while Array.unsafe_get tk1 !q1 <= tau do
      a := !a lxor Array.unsafe_get tm1 !q1;
      incr q1
    done;
    while Array.unsafe_get tk2 !q2 <= tau do
      b := !b lxor Array.unsafe_get tm2 !q2;
      incr q2
    done;
    if count then begin
      incr evals;
      lanes := !lanes + popcount tmask
    end;
    let nw =
      match code with
      | 2 -> lnot (!a land !b)
      | 3 -> lnot (!a lor !b)
      | 4 -> !a land !b
      | 5 -> !a lor !b
      | 6 -> !a lxor !b
      | _ -> lnot (!a lxor !b)
    in
    let diff = (nw lxor !out) land tmask in
    out := !out lxor diff;
    Array.unsafe_set ok !w tau;
    Array.unsafe_set om !w diff;
    w := !w + Bool.to_int (diff <> 0)
  done;
  if count then begin
    Sfi_obs.Counter.add obs_words !evals;
    Sfi_obs.Counter.add obs_lane_events !lanes
  end;
  if !w > start then close_region t out_net start (!w - start)

let walk3 t count code gi n1 n2 n3 =
  let pg1 = Array.unsafe_get t.net_page n1 in
  let pg2 = Array.unsafe_get t.net_page n2 in
  let pg3 = Array.unsafe_get t.net_page n3 in
  let tk1 = Array.unsafe_get t.page_key pg1 and tm1 = Array.unsafe_get t.page_mask pg1 in
  let tk2 = Array.unsafe_get t.page_key pg2 and tm2 = Array.unsafe_get t.page_mask pg2 in
  let tk3 = Array.unsafe_get t.page_key pg3 and tm3 = Array.unsafe_get t.page_mask pg3 in
  let o1 = Array.unsafe_get t.net_off n1 in
  let o2 = Array.unsafe_get t.net_off n2 in
  let o3 = Array.unsafe_get t.net_off n3 in
  let e1 = o1 + Array.unsafe_get t.net_len n1 in
  let e2 = o2 + Array.unsafe_get t.net_len n2 in
  let e3 = o3 + Array.unsafe_get t.net_len n3 in
  reserve t (e1 - o1 + e2 - o2 + e3 - o3 + 1);
  let ok = t.cur_key and om = t.cur_mask and start = t.fill in
  let d = Array.unsafe_get t.delay gi in
  let out_net = Array.unsafe_get t.circuit.Circuit.gate_out gi in
  let a = ref (Array.unsafe_get t.words n1)
  and b = ref (Array.unsafe_get t.words n2)
  and cv = ref (Array.unsafe_get t.words n3) in
  let out = ref (Array.unsafe_get t.words out_net) in
  let p1 = ref o1 and p2 = ref o2 and p3 = ref o3 in
  let q1 = ref o1 and q2 = ref o2 and q3 = ref o3 in
  let w = ref start and evals = ref 0 and lanes = ref 0 in
  let stop = e1 + e2 + e3 in
  while !p1 + !p2 + !p3 < stop do
    let k1 = Array.unsafe_get tk1 !p1
    and k2 = Array.unsafe_get tk2 !p2
    and k3 = Array.unsafe_get tk3 !p3 in
    let t1 = Bool.to_int (k1 <= k2) land Bool.to_int (k1 <= k3) in
    let t2 = Bool.to_int (k2 <= k1) land Bool.to_int (k2 <= k3) in
    let t3 = Bool.to_int (k3 <= k1) land Bool.to_int (k3 <= k2) in
    let tmask =
      (Array.unsafe_get tm1 !p1 land -t1)
      lor (Array.unsafe_get tm2 !p2 land -t2)
      lor (Array.unsafe_get tm3 !p3 land -t3)
    in
    p1 := !p1 + t1;
    p2 := !p2 + t2;
    p3 := !p3 + t3;
    let u = if t1 = 1 then k1 else if t2 = 1 then k2 else k3 in
    let tau = u +. d in
    let c1 = Bool.to_int (Array.unsafe_get tk1 !q1 <= tau) in
    a := !a lxor (Array.unsafe_get tm1 !q1 land -c1);
    q1 := !q1 + c1;
    let c2 = Bool.to_int (Array.unsafe_get tk2 !q2 <= tau) in
    b := !b lxor (Array.unsafe_get tm2 !q2 land -c2);
    q2 := !q2 + c2;
    let c3 = Bool.to_int (Array.unsafe_get tk3 !q3 <= tau) in
    cv := !cv lxor (Array.unsafe_get tm3 !q3 land -c3);
    q3 := !q3 + c3;
    while Array.unsafe_get tk1 !q1 <= tau do
      a := !a lxor Array.unsafe_get tm1 !q1;
      incr q1
    done;
    while Array.unsafe_get tk2 !q2 <= tau do
      b := !b lxor Array.unsafe_get tm2 !q2;
      incr q2
    done;
    while Array.unsafe_get tk3 !q3 <= tau do
      cv := !cv lxor Array.unsafe_get tm3 !q3;
      incr q3
    done;
    if count then begin
      incr evals;
      lanes := !lanes + popcount tmask
    end;
    let nw =
      match code with
      | 8 -> (!a land !cv) lor (lnot !a land !b)
      | 9 -> lnot ((!a land !b) lor !cv)
      | _ -> lnot ((!a lor !b) land !cv)
    in
    let diff = (nw lxor !out) land tmask in
    out := !out lxor diff;
    Array.unsafe_set ok !w tau;
    Array.unsafe_set om !w diff;
    w := !w + Bool.to_int (diff <> 0)
  done;
  if count then begin
    Sfi_obs.Counter.add obs_words !evals;
    Sfi_obs.Counter.add obs_lane_events !lanes
  end;
  if !w > start then close_region t out_net start (!w - start)

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
  t.fill <- 1;
  let count = Sfi_obs.enabled () in
  (* Primary-input transitions launch at t = 0, each lane exactly where
     its staged word differs from its current value. The commit to
     [words] is deferred with all the others. An input staged again
     rewrites its one entry, so the last word staged wins (a zero mask
     if it equals the current value). *)
  for i = 0 to t.staged_n - 1 do
    let net = Array.unsafe_get t.staged_net i in
    let diff = Array.unsafe_get t.staged_word i lxor Array.unsafe_get t.words net in
    if t.net_len.(net) > 0 then t.page_mask.(t.net_page.(net)).(t.net_off.(net)) <- diff
    else if diff <> 0 then begin
      reserve t 2;
      Array.unsafe_set t.cur_key t.fill 0.;
      Array.unsafe_set t.cur_mask t.fill diff;
      close_region t net t.fill 1
    end
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
  let net_len = t.net_len in
  for s = 0 to Array.length seg_kind - 1 do
    let code = Array.unsafe_get seg_kind s in
    let lo = Array.unsafe_get seg_off s in
    let hi = Array.unsafe_get seg_off (s + 1) - 1 in
    if code <= 1 then
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        let n1 = Array.unsafe_get ins (Array.unsafe_get fo gi) in
        if Array.unsafe_get net_len n1 <> 0 then walk1 t count code gi n1
      done
    else if code <= 7 then
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        let f = Array.unsafe_get fo gi in
        let n1 = Array.unsafe_get ins f in
        let n2 = Array.unsafe_get ins (f + 1) in
        if Array.unsafe_get net_len n1 lor Array.unsafe_get net_len n2 <> 0 then
          walk2 t count code gi n1 n2
      done
    else
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        let f = Array.unsafe_get fo gi in
        let n1 = Array.unsafe_get ins f in
        let n2 = Array.unsafe_get ins (f + 1) in
        let n3 = Array.unsafe_get ins (f + 2) in
        if
          Array.unsafe_get net_len n1 lor Array.unsafe_get net_len n2
          lor Array.unsafe_get net_len n3
          <> 0
        then walk3 t count code gi n1 n2 n3
      done
  done;
  (* Commit: each touched net's final value is its start value XOR all
     its toggles; watched nets also record per-lane settle times. Then
     the net goes back to the shared empty region. *)
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
    if wi >= 0 then record_settles t wi (Array.unsafe_get t.page_key pg) tm off len;
    Array.unsafe_set t.net_page n 0;
    Array.unsafe_set t.net_off n 0;
    Array.unsafe_set t.net_len n 0
  done;
  t.touched_n <- 0

let value t net ~lane = (t.words.(net) lsr lane) land 1 = 1

let read_lane_vec t nets ~lane = Bitsim.read_lane t.words nets ~lane

let settle_time t net ~lane =
  match t.watch_ix.(net) with
  | -1 -> invalid_arg "Dta_packed.settle_time: net is not watched"
  | wi ->
    if t.w_gen.(wi) = t.gen && (t.w_mask.(wi) lsr lane) land 1 = 1 then
      t.w_time.((wi * Bitsim.lanes) + lane) *. 0x1p32
    else 0.
