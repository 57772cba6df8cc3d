(* Bit-parallel (word-level) functional evaluation.

   One machine word per net holds [lanes] independent trials: bit [l] of
   [words.(net)] is net [net]'s Boolean value in lane [l]. Every gate
   then evaluates all lanes at once with one or two word operations
   (MUX decomposes into AND/OR masking at evaluation time), so a full
   functional pass costs [gate_count] word ops instead of
   [lanes * gate_count] Boolean ops.

   OCaml's native [int] has [Sys.int_size] usable bits (63 on 64-bit
   targets) and its bitwise operations are exact on all of them — words
   with bit 62 set are negative, which is fine, since no arithmetic is
   ever done on a word. [Int64] would be wider but boxes per operation
   on a non-flambda toolchain, so 63 lanes per sweep is the sweet spot.

   [eval_levels] walks the compiled (level, kind) schedule built by
   [Circuit.freeze]: one kind dispatch per segment, then a tight
   straight-line loop over flat int arrays, instead of re-interpreting
   the kind code gate by gate. *)

open Sfi_util

let lanes = Sys.int_size

(* All [lanes] bits set. [lnot 0] rather than [-1] to make the "bit
   mask, not number" reading explicit. *)
let full_mask = lnot 0

let lane_mask ~active =
  if active < 0 || active > lanes then invalid_arg "Bitsim.lane_mask";
  if active = lanes then full_mask else (1 lsl active) - 1

let make_words (c : Circuit.t) =
  let words = Array.make c.Circuit.n_nets 0 in
  (match c.Circuit.const_true with
  | Some n -> words.(n) <- full_mask
  | None -> ());
  words

(* One gate, all lanes: the word transcription of [Cell.eval] over the
   flat fan-in arrays (for MUX2, fan-in order is [sel; taken-when-false;
   taken-when-true]). *)
let eval_gate_word (c : Circuit.t) words gi =
  let o = Array.unsafe_get c.Circuit.fanin_off gi in
  let ins = c.Circuit.fanin_net in
  match Array.unsafe_get c.Circuit.kind_code gi with
  | 0 (* Inv *) -> lnot (Array.unsafe_get words (Array.unsafe_get ins o))
  | 1 (* Buf *) -> Array.unsafe_get words (Array.unsafe_get ins o)
  | 2 (* Nand2 *) ->
    lnot
      (Array.unsafe_get words (Array.unsafe_get ins o)
      land Array.unsafe_get words (Array.unsafe_get ins (o + 1)))
  | 3 (* Nor2 *) ->
    lnot
      (Array.unsafe_get words (Array.unsafe_get ins o)
      lor Array.unsafe_get words (Array.unsafe_get ins (o + 1)))
  | 4 (* And2 *) ->
    Array.unsafe_get words (Array.unsafe_get ins o)
    land Array.unsafe_get words (Array.unsafe_get ins (o + 1))
  | 5 (* Or2 *) ->
    Array.unsafe_get words (Array.unsafe_get ins o)
    lor Array.unsafe_get words (Array.unsafe_get ins (o + 1))
  | 6 (* Xor2 *) ->
    Array.unsafe_get words (Array.unsafe_get ins o)
    lxor Array.unsafe_get words (Array.unsafe_get ins (o + 1))
  | 7 (* Xnor2 *) ->
    lnot
      (Array.unsafe_get words (Array.unsafe_get ins o)
      lxor Array.unsafe_get words (Array.unsafe_get ins (o + 1)))
  | 8 (* Mux2 *) ->
    let s = Array.unsafe_get words (Array.unsafe_get ins o) in
    (s land Array.unsafe_get words (Array.unsafe_get ins (o + 2)))
    lor (lnot s land Array.unsafe_get words (Array.unsafe_get ins (o + 1)))
  | 9 (* Aoi21 *) ->
    lnot
      ((Array.unsafe_get words (Array.unsafe_get ins o)
       land Array.unsafe_get words (Array.unsafe_get ins (o + 1)))
      lor Array.unsafe_get words (Array.unsafe_get ins (o + 2)))
  | _ (* Oai21 *) ->
    lnot
      ((Array.unsafe_get words (Array.unsafe_get ins o)
       lor Array.unsafe_get words (Array.unsafe_get ins (o + 1)))
      land Array.unsafe_get words (Array.unsafe_get ins (o + 2)))

(* The same word functions over explicit operand words, for callers that
   track input state locally instead of in a per-net array (the packed
   DTA's waveform walk). Unused operands are ignored. *)
let eval_code code a b c =
  match code with
  | 0 (* Inv *) -> lnot a
  | 1 (* Buf *) -> a
  | 2 (* Nand2 *) -> lnot (a land b)
  | 3 (* Nor2 *) -> lnot (a lor b)
  | 4 (* And2 *) -> a land b
  | 5 (* Or2 *) -> a lor b
  | 6 (* Xor2 *) -> a lxor b
  | 7 (* Xnor2 *) -> lnot (a lxor b)
  | 8 (* Mux2 *) -> (a land c) lor (lnot a land b)
  | 9 (* Aoi21 *) -> lnot ((a land b) lor c)
  | _ (* Oai21 *) -> lnot ((a lor b) land c)

(* Full functional pass over the compiled schedule. Each arm hoists the
   segment's kind out of the loop; the loop bodies index only flat int
   arrays, so ocamlopt keeps the base pointers in registers. *)
let eval_levels (c : Circuit.t) words =
  let sched = c.Circuit.sched_gate in
  let seg_off = c.Circuit.seg_off in
  let seg_kind = c.Circuit.seg_kind in
  let fo = c.Circuit.fanin_off in
  let ins = c.Circuit.fanin_net in
  let out = c.Circuit.gate_out in
  let in1 gi = Array.unsafe_get words (Array.unsafe_get ins (Array.unsafe_get fo gi)) in
  let in2 gi =
    Array.unsafe_get words (Array.unsafe_get ins (Array.unsafe_get fo gi + 1))
  in
  let in3 gi =
    Array.unsafe_get words (Array.unsafe_get ins (Array.unsafe_get fo gi + 2))
  in
  for s = 0 to Array.length seg_kind - 1 do
    let lo = Array.unsafe_get seg_off s in
    let hi = Array.unsafe_get seg_off (s + 1) - 1 in
    match Array.unsafe_get seg_kind s with
    | 0 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (lnot (in1 gi))
      done
    | 1 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (in1 gi)
      done
    | 2 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (lnot (in1 gi land in2 gi))
      done
    | 3 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (lnot (in1 gi lor in2 gi))
      done
    | 4 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (in1 gi land in2 gi)
      done
    | 5 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (in1 gi lor in2 gi)
      done
    | 6 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (in1 gi lxor in2 gi)
      done
    | 7 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (lnot (in1 gi lxor in2 gi))
      done
    | 8 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        let sel = in1 gi in
        Array.unsafe_set words (Array.unsafe_get out gi)
          ((sel land in3 gi) lor (lnot sel land in2 gi))
      done
    | 9 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi)
          (lnot ((in1 gi land in2 gi) lor in3 gi))
      done
    | _ ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi)
          (lnot ((in1 gi lor in2 gi) land in3 gi))
      done
  done

(* ---------- lane packing ---------- *)

let pack words (nets : Circuit.net array) (vals : U32.t array) =
  let nv = Array.length vals in
  if nv > lanes then invalid_arg "Bitsim.pack: more values than lanes";
  for i = 0 to Array.length nets - 1 do
    let w = ref 0 in
    for l = 0 to nv - 1 do
      w := !w lor (((vals.(l) lsr i) land 1) lsl l)
    done;
    words.(nets.(i)) <- !w
  done

let read_lane words (nets : Circuit.net array) ~lane =
  if lane < 0 || lane >= lanes then invalid_arg "Bitsim.read_lane";
  let acc = ref 0 in
  for i = 0 to Array.length nets - 1 do
    acc := !acc lor (((words.(nets.(i)) lsr lane) land 1) lsl i)
  done;
  !acc

(* ---------- word bit utilities (used by the packed event engine) ---------- *)

(* 32-bit SWAR halves: every literal stays well inside the 63-bit int, and
   a 63-bit word splits exactly into a 31-bit and a 32-bit part. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* The usual [lsr 24] alone relies on the multiply wrapping at 32 bits;
     OCaml ints are wider, so mask the byte the count lands in. *)
  ((x * 0x01010101) lsr 24) land 0xFF

let popcount w = popcount32 (w land 0x7FFFFFFF) + popcount32 ((w lsr 31) land 0xFFFFFFFF)

(* Count of trailing zeros of a nonzero word, by halving; allocation-free
   (no Int64, no float conversions) for the per-event settle loops. *)
let ctz w =
  if w = 0 then invalid_arg "Bitsim.ctz: zero";
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    w := !w lsr 32
  end;
  if !w land 0xFFFF = 0 then begin
    n := !n + 16;
    w := !w lsr 16
  end;
  if !w land 0xFF = 0 then begin
    n := !n + 8;
    w := !w lsr 8
  end;
  if !w land 0xF = 0 then begin
    n := !n + 4;
    w := !w lsr 4
  end;
  if !w land 0x3 = 0 then begin
    n := !n + 2;
    w := !w lsr 2
  end;
  if !w land 0x1 = 0 then incr n;
  !n
