type net = int

type proto_gate = { p_kind : Cell.kind; p_fan_in : net array; p_out : net; p_tag : int }

module Builder = struct
  type t = {
    mutable next_net : int;
    mutable gates_rev : proto_gate list;
    mutable n_gates : int;
    mutable pis_rev : (string * net) list;
    mutable pos_rev : (string * net) list;
    mutable cfalse : net option;
    mutable ctrue : net option;
    mutable tags : string list; (* reverse order; id = position from start *)
    mutable n_tags : int;
    mutable tag : int;
  }

  let create () =
    {
      next_net = 0;
      gates_rev = [];
      n_gates = 0;
      pis_rev = [];
      pos_rev = [];
      cfalse = None;
      ctrue = None;
      tags = [ "top" ];
      n_tags = 1;
      tag = 0;
    }

  let tag_index t name =
    let rec find i = function
      | [] -> None
      | n :: rest -> if n = name then Some (t.n_tags - 1 - i) else find (i + 1) rest
    in
    find 0 t.tags

  let set_tag t name =
    match tag_index t name with
    | Some id -> t.tag <- id
    | None ->
      t.tags <- name :: t.tags;
      t.tag <- t.n_tags;
      t.n_tags <- t.n_tags + 1

  let fresh_net t =
    let n = t.next_net in
    t.next_net <- n + 1;
    n

  let input t name =
    let n = fresh_net t in
    t.pis_rev <- (name, n) :: t.pis_rev;
    n

  let input_vec t name w =
    Array.init w (fun i -> input t (Printf.sprintf "%s.%d" name i))

  let gate t kind fan_in =
    if Array.length fan_in <> Cell.arity kind then
      invalid_arg "Circuit.Builder.gate: arity mismatch";
    Array.iter
      (fun n ->
        if n < 0 || n >= t.next_net then
          invalid_arg "Circuit.Builder.gate: unknown input net")
      fan_in;
    let out = fresh_net t in
    t.gates_rev <-
      { p_kind = kind; p_fan_in = Array.copy fan_in; p_out = out; p_tag = t.tag }
      :: t.gates_rev;
    t.n_gates <- t.n_gates + 1;
    out

  let const t v =
    if v then
      match t.ctrue with
      | Some n -> n
      | None ->
        let n = fresh_net t in
        t.ctrue <- Some n;
        n
    else
      match t.cfalse with
      | Some n -> n
      | None ->
        let n = fresh_net t in
        t.cfalse <- Some n;
        n

  let output t name n =
    if n < 0 || n >= t.next_net then invalid_arg "Circuit.Builder.output: unknown net";
    t.pos_rev <- (name, n) :: t.pos_rev
end

type gate = { kind : Cell.kind; fan_in : net array; out : net; tag : int }

type t = {
  n_nets : int;
  gates : gate array;
  base_delay : float array;
  pis : (string * net) array;
  pos : (string * net) array;
  const_false : net option;
  const_true : net option;
  driver : int array;
  tags : string array;
  (* Structure-of-arrays mirror of [gates], built once in [freeze]: flat
     int arrays with CSR-packed fan-in and reader adjacency. The hot
     evaluation loops (logic sim, DTA drain) walk these for cache locality
     and to avoid chasing the per-gate record/array pointers; the [gates]
     records remain the API for everything that is not hot. *)
  kind_code : int array;
  gate_out : int array;
  fanin_off : int array;
  fanin_net : int array;
  reader_off : int array;
  reader_gate : int array;
  (* Compiled levelized schedule, also built once in [freeze]: gates
     partitioned into topological levels (level of a gate = 1 + max level
     of its fan-in nets; primary inputs and constants are level 0) and,
     within each level, grouped by cell kind. [sched_gate] lists every
     gate exactly once, ordered by (level, kind, gate index); segment [s]
     covers [sched_gate.(seg_off.(s)) .. sched_gate.(seg_off.(s+1)-1)]
     and contains only gates of kind code [seg_kind.(s)]. A word-level
     evaluator can therefore run one tight loop per segment — a single
     kind dispatch amortized over the whole segment — while still seeing
     every fan-in already computed (segments are emitted level by
     level). *)
  n_levels : int;
  gate_level : int array;
  sched_gate : int array;
  seg_off : int array;
  seg_kind : int array;
}

let freeze (b : Builder.t) ~lib =
  let gates =
    b.Builder.gates_rev |> List.rev
    |> List.map (fun (p : proto_gate) ->
           { kind = p.p_kind; fan_in = p.p_fan_in; out = p.p_out; tag = p.p_tag })
    |> Array.of_list
  in
  let n_nets = b.Builder.next_net in
  let driver = Array.make n_nets (-1) in
  Array.iteri (fun i g -> driver.(g.out) <- i) gates;
  (* Check that every net is driven by a gate, a primary input, or a
     constant. *)
  let driven = Array.make n_nets false in
  Array.iteri (fun net d -> if d >= 0 then driven.(net) <- true) driver;
  List.iter (fun (_, n) -> driven.(n) <- true) b.Builder.pis_rev;
  (match b.Builder.cfalse with Some n -> driven.(n) <- true | None -> ());
  (match b.Builder.ctrue with Some n -> driven.(n) <- true | None -> ());
  Array.iteri
    (fun net ok ->
      if not ok then
        invalid_arg (Printf.sprintf "Circuit.freeze: net %d has no driver" net))
    driven;
  let n_gates = Array.length gates in
  let reader_counts = Array.make n_nets 0 in
  Array.iter
    (fun g ->
      Array.iter (fun n -> reader_counts.(n) <- reader_counts.(n) + 1) g.fan_in)
    gates;
  (* CSR reader adjacency: reader_off.(n) .. reader_off.(n+1) - 1 index the
     gates reading net n, in gate (= topological) order. *)
  let reader_off = Array.make (n_nets + 1) 0 in
  for n = 0 to n_nets - 1 do
    reader_off.(n + 1) <- reader_off.(n) + reader_counts.(n)
  done;
  let reader_gate = Array.make reader_off.(n_nets) (-1) in
  let fill = Array.copy reader_off in
  Array.iteri
    (fun i g ->
      Array.iter
        (fun n ->
          reader_gate.(fill.(n)) <- i;
          fill.(n) <- fill.(n) + 1)
        g.fan_in)
    gates;
  (* CSR fan-in plus flat per-gate kind/output arrays. *)
  let fanin_off = Array.make (n_gates + 1) 0 in
  Array.iteri
    (fun i g -> fanin_off.(i + 1) <- fanin_off.(i) + Array.length g.fan_in)
    gates;
  let fanin_net = Array.make fanin_off.(n_gates) (-1) in
  Array.iteri
    (fun i g ->
      Array.iteri (fun j n -> fanin_net.(fanin_off.(i) + j) <- n) g.fan_in)
    gates;
  let kind_code = Array.map (fun g -> Cell.code g.kind) gates in
  let gate_out = Array.map (fun g -> g.out) gates in
  let pos = Array.of_list (List.rev b.Builder.pos_rev) in
  let po_loads = Array.make n_nets 0 in
  Array.iter (fun (_, n) -> po_loads.(n) <- po_loads.(n) + 1) pos;
  let base_delay =
    Array.map
      (fun g ->
        let fanout = reader_counts.(g.out) + po_loads.(g.out) in
        Cell_lib.gate_delay lib g.kind ~fanout)
      gates
  in
  let tags =
    Array.of_list (List.rev b.Builder.tags)
  in
  (* Topological levels over nets, then the (level, kind)-segmented
     schedule via a counting sort: gate creation order is already
     topological, so one forward pass computes every level. *)
  let net_level = Array.make n_nets 0 in
  let gate_level = Array.make n_gates 0 in
  let n_levels = ref 0 in
  Array.iteri
    (fun i g ->
      let lvl =
        1 + Array.fold_left (fun acc n -> max acc net_level.(n)) 0 g.fan_in
      in
      gate_level.(i) <- lvl;
      net_level.(g.out) <- lvl;
      if lvl > !n_levels then n_levels := lvl)
    gates;
  let n_levels = !n_levels in
  let n_buckets = n_levels * Cell.code_count in
  let bucket i = ((gate_level.(i) - 1) * Cell.code_count) + kind_code.(i) in
  let bucket_count = Array.make (n_buckets + 1) 0 in
  Array.iteri
    (fun i _ -> bucket_count.(bucket i) <- bucket_count.(bucket i) + 1)
    gates;
  let bucket_off = Array.make (n_buckets + 1) 0 in
  for bk = 0 to n_buckets - 1 do
    bucket_off.(bk + 1) <- bucket_off.(bk) + bucket_count.(bk)
  done;
  let sched_gate = Array.make n_gates (-1) in
  let fill = Array.copy bucket_off in
  Array.iteri
    (fun i _ ->
      let bk = bucket i in
      sched_gate.(fill.(bk)) <- i;
      fill.(bk) <- fill.(bk) + 1)
    gates;
  let n_segs =
    Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 bucket_count
  in
  let seg_off = Array.make (n_segs + 1) 0 in
  let seg_kind = Array.make n_segs 0 in
  let s = ref 0 in
  for bk = 0 to n_buckets - 1 do
    if bucket_count.(bk) > 0 then begin
      seg_off.(!s) <- bucket_off.(bk);
      seg_kind.(!s) <- bk mod Cell.code_count;
      incr s
    end
  done;
  seg_off.(n_segs) <- n_gates;
  {
    n_nets;
    gates;
    base_delay;
    pis = Array.of_list (List.rev b.Builder.pis_rev);
    pos;
    const_false = b.Builder.cfalse;
    const_true = b.Builder.ctrue;
    driver;
    tags;
    kind_code;
    gate_out;
    fanin_off;
    fanin_net;
    reader_off;
    reader_gate;
    n_levels;
    gate_level;
    sched_gate;
    seg_off;
    seg_kind;
  }

let tag_id t name =
  let found = ref None in
  Array.iteri (fun i n -> if n = name then found := Some i) t.tags;
  !found

let scale_tag_delays t ~tag ~factor =
  match tag_id t tag with
  | None -> ()
  | Some id ->
    Array.iteri
      (fun i g -> if g.tag = id then t.base_delay.(i) <- t.base_delay.(i) *. factor)
      t.gates

let scale_gate_delays t f =
  Array.iteri (fun i _ -> t.base_delay.(i) <- t.base_delay.(i) *. f i) t.gates

let gate_count t = Array.length t.gates

let count_by_kind t =
  List.map
    (fun kind ->
      let c =
        Array.fold_left (fun acc g -> if g.kind = kind then acc + 1 else acc) 0 t.gates
      in
      (kind, c))
    Cell.all
  |> List.filter (fun (_, c) -> c > 0)

let count_by_tag t =
  Array.to_list t.tags
  |> List.mapi (fun id name ->
         let c =
           Array.fold_left (fun acc g -> if g.tag = id then acc + 1 else acc) 0 t.gates
         in
         (name, c))
  |> List.filter (fun (_, c) -> c > 0)

let total_area t ~lib =
  Array.fold_left (fun acc g -> acc +. (Cell_lib.entry lib g.kind).Cell_lib.area) 0. t.gates

let logic_depth t =
  let depth = Array.make t.n_nets 0 in
  Array.iter
    (fun g ->
      let d = Array.fold_left (fun acc n -> max acc depth.(n)) 0 g.fan_in in
      depth.(g.out) <- d + 1)
    t.gates;
  Array.fold_left (fun acc (_, n) -> max acc depth.(n)) 0 t.pos
