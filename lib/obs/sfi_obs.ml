(* Deterministic, near-zero-overhead observability.

   Design constraints, in priority order:

   1. Determinism: every metric that feeds the jobs=1 vs jobs=n
      comparison is an additive integer (counter increments, histogram
      bucket counts, histogram sums). Integer addition is associative
      and commutative, so summing per-domain shards yields the same
      totals for every work partition — the only scheduling-sensitive
      quantities are wall-time spans and the pool's own scheduling
      counters, which are tagged [det = false] and excluded from
      {!det_signature}.

   2. Overhead: an increment on the hot path is one mutable-bool load,
      one domain-local-storage load and one int-array read-modify-write;
      no allocation, no locking, no atomics. Disabled, it is the bool
      load and a branch.

   3. Sharding: each domain owns a plain [int array] shard registered in
      a global list. Only the owning domain writes its shard, so there
      are no data races between writers. Readers ({!snapshot}) sum the
      shards under the registry lock; shard values published before a
      synchronizing event (Domain.join, the pool's completion handshake)
      are visible, which covers every snapshot taken after a batch
      completes. A pool worker folds its shard into the retired base via
      {!retire_current_domain} just before it exits, so counts are never
      lost when domains die ("merge on pool join"). *)

(* ---------- minimal JSON (writer + parser, no dependencies) ---------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_nan f then Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  exception Parse_error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then s.[!pos] else '\255' in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n then
        match s.[!pos] with
        | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
        | _ -> ()
    in
    let expect c =
      if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?' (* non-ASCII: placeholder *)
              | None -> fail "bad \\u escape");
              pos := !pos + 4
            | _ -> fail "bad escape");
            advance ();
            go ()
          | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail ("bad number " ^ tok))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '"' -> String (parse_string ())
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              items (v :: acc)
            | ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              members ((k, v) :: acc)
            | '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
      | c when c = '-' || (c >= '0' && c <= '9') -> parse_number ()
      | _ -> fail "unexpected character"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None

  let to_float = function
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | _ -> None

  let to_int = function Int i -> Some i | _ -> None

  let to_bool = function Bool b -> Some b | _ -> None

  let to_string_opt = function String s -> Some s | _ -> None
end

(* ---------- registry ---------- *)

type kind = Counter_k | Hist_k | Span_k

type metric = {
  name : string;
  kind : kind;
  det : bool; (* participates in the jobs=1 vs jobs=n identity *)
  off : int; (* first cell in the shard cell space *)
  width : int;
}

(* Histogram layout: 64 log2 buckets, then count, then sum-of-values.
   Span layout: call count, then accumulated wall nanoseconds. *)
let hist_buckets = 64

let hist_width = hist_buckets + 2

let span_width = 2

let lock = Mutex.create ()

let metrics : metric list ref = ref [] (* reverse registration order *)

let index : (string, metric) Hashtbl.t = Hashtbl.create 64

let next_cell = ref 0

type shard = { mutable cells : int array }

(* Live per-domain shards plus the fold of retired ones. Only the owning
   domain mutates a live shard's cells; everything else is under [lock]. *)
let shards : shard list ref = ref []

let base = { cells = [||] }

let grow_cells s want =
  let len = Array.length s.cells in
  if want > len then begin
    let cells = Array.make (max want (max 64 (2 * len))) 0 in
    Array.blit s.cells 0 cells 0 len;
    s.cells <- cells
  end

let dls_key =
  Domain.DLS.new_key (fun () ->
      let s = { cells = Array.make (max 64 !next_cell) 0 } in
      Mutex.protect lock (fun () -> shards := s :: !shards);
      s)

let enabled_ref = ref false

let enabled () = !enabled_ref

let set_enabled v = enabled_ref := v

let register name kind det width =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt index name with
      | Some m ->
        if m.kind <> kind then
          invalid_arg
            (Printf.sprintf "Sfi_obs: metric %s re-registered with a different kind" name);
        m
      | None ->
        let m = { name; kind; det; off = !next_cell; width } in
        next_cell := !next_cell + width;
        Hashtbl.replace index name m;
        metrics := m :: !metrics;
        m)

(* Owner-domain cell bump. The bounds check only fires when a metric was
   registered after this domain's shard was sized, i.e. never in a
   steady-state hot loop. *)
let bump m slot n =
  let s = Domain.DLS.get dls_key in
  let i = m.off + slot in
  if i >= Array.length s.cells then grow_cells s !next_cell;
  Array.unsafe_set s.cells i (Array.unsafe_get s.cells i + n)

let read_cells m =
  Mutex.protect lock (fun () ->
      let out = Array.make m.width 0 in
      let accum (s : shard) =
        let len = Array.length s.cells in
        for i = 0 to m.width - 1 do
          if m.off + i < len then out.(i) <- out.(i) + s.cells.(m.off + i)
        done
      in
      accum base;
      List.iter accum !shards;
      out)

let retire_current_domain () =
  let s = Domain.DLS.get dls_key in
  Mutex.protect lock (fun () ->
      (* The shard may exceed [next_cell]: [grow_cells] doubles, so size
         [base] to the shard itself, not the registry watermark. *)
      let len = Array.length s.cells in
      grow_cells base len;
      for i = 0 to len - 1 do
        base.cells.(i) <- base.cells.(i) + s.cells.(i)
      done;
      Array.fill s.cells 0 len 0;
      shards := List.filter (fun s' -> s' != s) !shards)

let reset () =
  Mutex.protect lock (fun () ->
      Array.fill base.cells 0 (Array.length base.cells) 0;
      List.iter (fun s -> Array.fill s.cells 0 (Array.length s.cells) 0) !shards)

let shard_count () = Mutex.protect lock (fun () -> List.length !shards)

(* ---------- metric front-ends ---------- *)

module Counter = struct
  type t = metric

  let make ?(det = true) name = register name Counter_k det 1

  let add t n = if !enabled_ref then bump t 0 n

  let incr t = add t 1

  let value t = (read_cells t).(0)
end

module Hist = struct
  type t = metric

  let make ?(det = true) name = register name Hist_k det hist_width

  (* Bucket = number of significant bits: 0 for v <= 0, else
     floor(log2 v) + 1, saturated to the last bucket. Values within
     [2^(b-1), 2^b) share bucket b. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 0 do
        incr b;
        v := !v lsr 1
      done;
      if !b > hist_buckets - 1 then hist_buckets - 1 else !b
    end

  let lo_of_bucket b = if b = 0 then 0 else 1 lsl (b - 1)

  let observe t v =
    if !enabled_ref then begin
      bump t (bucket_of v) 1;
      bump t hist_buckets 1;
      bump t (hist_buckets + 1) v
    end

  let count t = (read_cells t).(hist_buckets)

  let sum t = (read_cells t).(hist_buckets + 1)

  let buckets t =
    let cells = read_cells t in
    let out = ref [] in
    for b = hist_buckets - 1 downto 0 do
      if cells.(b) <> 0 then out := (b, cells.(b)) :: !out
    done;
    !out
end

module Span = struct
  type t = metric

  let make name = register name Span_k false span_width

  let add_ns t ns =
    if !enabled_ref then begin
      bump t 0 1;
      bump t 1 ns
    end

  let time t f =
    if not !enabled_ref then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          add_ns t (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)))
        f
    end

  let count t = (read_cells t).(0)

  let total_ns t = (read_cells t).(1)
end

(* ---------- snapshots ---------- *)

type value =
  | Counter_v of int
  | Hist_v of { count : int; sum : int; buckets : (int * int) list }
  | Span_v of { count : int; total_ns : int }

type entry = { entry_name : string; entry_det : bool; entry_value : value }

let snapshot () =
  let ms = Mutex.protect lock (fun () -> List.rev !metrics) in
  List.map
    (fun m ->
      let cells = read_cells m in
      let value =
        match m.kind with
        | Counter_k -> Counter_v cells.(0)
        | Hist_k ->
          let buckets = ref [] in
          for b = hist_buckets - 1 downto 0 do
            if cells.(b) <> 0 then buckets := (b, cells.(b)) :: !buckets
          done;
          Hist_v
            { count = cells.(hist_buckets); sum = cells.(hist_buckets + 1); buckets = !buckets }
        | Span_k -> Span_v { count = cells.(0); total_ns = cells.(1) }
      in
      { entry_name = m.name; entry_det = m.det; entry_value = value })
    ms

(* The deterministic fingerprint of a run: every [det] counter and
   histogram flattened to named int lists. Spans and scheduling-dependent
   counters are excluded, so two runs of the same work at different job
   counts must produce equal signatures. *)
let det_signature () =
  List.filter_map
    (fun e ->
      if not e.entry_det then None
      else
        match e.entry_value with
        | Counter_v v -> Some (e.entry_name, [ v ])
        | Hist_v { count; sum; buckets } ->
          Some
            ( e.entry_name,
              count :: sum :: List.concat_map (fun (b, c) -> [ b; c ]) buckets )
        | Span_v _ -> None)
    (snapshot ())

let json_of_entry e =
  let open Json in
  match e.entry_value with
  | Counter_v v ->
    Obj
      [
        ("type", String "counter");
        ("name", String e.entry_name);
        ("det", Bool e.entry_det);
        ("value", Int v);
      ]
  | Hist_v { count; sum; buckets } ->
    Obj
      [
        ("type", String "hist");
        ("name", String e.entry_name);
        ("det", Bool e.entry_det);
        ("count", Int count);
        ("sum", Int sum);
        ( "buckets",
          List (List.map (fun (b, c) -> List [ Int b; Int c ]) buckets) );
      ]
  | Span_v { count; total_ns } ->
    Obj
      [
        ("type", String "span");
        ("name", String e.entry_name);
        ("det", Bool false);
        ("count", Int count);
        ("total_ns", Int total_ns);
      ]

let jsonl_string ?(meta = []) () =
  let buf = Buffer.create 1024 in
  Json.write buf
    (Json.Obj ([ ("schema", Json.String "sfi-obs/1") ] @ meta));
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Json.write buf (json_of_entry e);
      Buffer.add_char buf '\n')
    (snapshot ());
  Buffer.contents buf

let write_jsonl ?meta path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (jsonl_string ?meta ()))
