(* Unit tests for the observability subsystem: registry semantics,
   enable gating, per-domain shard merging through the pool, the
   deterministic signature, and the JSONL snapshot format. *)

open Sfi_util

(* Fresh counters per test run: alcotest executes cases sequentially in
   one process, so reset + enable around each body is race-free. *)
let with_obs f () =
  Sfi_obs.reset ();
  Sfi_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Sfi_obs.set_enabled false) f

(* ---------- counters ---------- *)

let test_counter_basic () =
  let c = Sfi_obs.Counter.make "test.basic" in
  Alcotest.(check int) "starts at 0" 0 (Sfi_obs.Counter.value c);
  Sfi_obs.Counter.incr c;
  Sfi_obs.Counter.add c 41;
  Alcotest.(check int) "accumulates" 42 (Sfi_obs.Counter.value c)

let test_counter_disabled_noop () =
  let c = Sfi_obs.Counter.make "test.disabled" in
  Sfi_obs.set_enabled false;
  Sfi_obs.Counter.add c 7;
  Sfi_obs.set_enabled true;
  Alcotest.(check int) "no count while disabled" 0 (Sfi_obs.Counter.value c);
  Sfi_obs.Counter.add c 7;
  Alcotest.(check int) "counts once re-enabled" 7 (Sfi_obs.Counter.value c)

let test_counter_find_or_create () =
  let a = Sfi_obs.Counter.make "test.shared" in
  let b = Sfi_obs.Counter.make "test.shared" in
  Sfi_obs.Counter.add a 3;
  Sfi_obs.Counter.add b 4;
  Alcotest.(check int) "same cell via a" 7 (Sfi_obs.Counter.value a);
  Alcotest.(check int) "same cell via b" 7 (Sfi_obs.Counter.value b)

let test_kind_mismatch_raises () =
  ignore (Sfi_obs.Counter.make "test.kind_clash");
  Alcotest.check_raises "hist over counter name"
    (Invalid_argument
       "Sfi_obs: metric test.kind_clash re-registered with a different kind")
    (fun () -> ignore (Sfi_obs.Hist.make "test.kind_clash"))

(* ---------- histograms ---------- *)

let test_hist_bucket_laws () =
  Alcotest.(check int) "bucket of 0" 0 (Sfi_obs.Hist.bucket_of 0);
  Alcotest.(check int) "bucket of -5" 0 (Sfi_obs.Hist.bucket_of (-5));
  Alcotest.(check int) "bucket of 1" 1 (Sfi_obs.Hist.bucket_of 1);
  List.iter
    (fun v ->
      let b = Sfi_obs.Hist.bucket_of v in
      let lo = Sfi_obs.Hist.lo_of_bucket b in
      if not (lo <= v) then Alcotest.failf "lo %d > v %d (bucket %d)" lo v b;
      (* The upper-bound law only applies while 2^b fits the native int:
         bucket 62 is the top bucket for 63-bit OCaml ints. *)
      if b < 62 && not (v < Sfi_obs.Hist.lo_of_bucket (b + 1)) then
        Alcotest.failf "v %d >= next bucket lo (bucket %d)" v b)
    [ 1; 2; 3; 4; 7; 8; 1023; 1024; 123_456_789; max_int ]

let test_hist_observe () =
  let h = Sfi_obs.Hist.make "test.hist" in
  List.iter (Sfi_obs.Hist.observe h) [ 1; 1; 2; 100; 0 ];
  Alcotest.(check int) "count" 5 (Sfi_obs.Hist.count h);
  Alcotest.(check int) "sum" 104 (Sfi_obs.Hist.sum h);
  Alcotest.(check (list (pair int int)))
    "sparse ascending buckets"
    [ (0, 1); (1, 2); (2, 1); (7, 1) ]
    (Sfi_obs.Hist.buckets h)

(* ---------- spans ---------- *)

let test_span_accumulates () =
  let s = Sfi_obs.Span.make "test.span" in
  Sfi_obs.Span.add_ns s 1500;
  let r = Sfi_obs.Span.time s (fun () -> 17) in
  Alcotest.(check int) "time returns the thunk's value" 17 r;
  Alcotest.(check int) "two entries" 2 (Sfi_obs.Span.count s);
  Alcotest.(check bool) "non-negative total" true (Sfi_obs.Span.total_ns s >= 1500)

(* A stamp pair times one region; a stamp taken while disabled adds
   nothing even if recording was switched on in between. *)
let test_span_start_stop () =
  let s = Sfi_obs.Span.make "test.stamp_span" in
  let t0 = Sfi_obs.Span.start () in
  Alcotest.(check bool) "enabled stamp is positive" true (t0 > 0);
  Sfi_obs.Span.stop s t0;
  Alcotest.(check int) "one call" 1 (Sfi_obs.Span.count s);
  Alcotest.(check bool) "non-negative total" true (Sfi_obs.Span.total_ns s >= 0);
  Sfi_obs.set_enabled false;
  let t1 = Sfi_obs.Span.start () in
  Alcotest.(check int) "disabled stamp is 0" 0 t1;
  Sfi_obs.set_enabled true;
  Sfi_obs.Span.stop s t1;
  Alcotest.(check int) "disabled stamp not recorded" 1 (Sfi_obs.Span.count s)

(* Timing a region with a stamp pair costs nothing while disabled: the
   characterization kernel times every sweep task this way. *)
let test_span_stamps_allocation_free () =
  match Sys.backend_type with
  | Sys.Native ->
    let s = Sfi_obs.Span.make "test.stamp_alloc" in
    Sfi_obs.set_enabled false;
    let run () =
      for _ = 1 to 10_000 do
        Sfi_obs.Span.stop s (Sfi_obs.Span.start ())
      done
    in
    run ();
    let w0 = Gc.minor_words () in
    run ();
    let dw = Gc.minor_words () -. w0 in
    Alcotest.(check bool)
      (Printf.sprintf "disabled start/stop allocated %.0f minor words" dw)
      true (dw < 16.)
  | Sys.Bytecode | Sys.Other _ -> ()

(* ---------- det signature ---------- *)

let test_det_signature_contents () =
  let c = Sfi_obs.Counter.make "test.det_counter" in
  let nd = Sfi_obs.Counter.make ~det:false "test.sched_counter" in
  let s = Sfi_obs.Span.make "test.sig_span" in
  Sfi_obs.Counter.add c 5;
  Sfi_obs.Counter.add nd 9;
  Sfi_obs.Span.add_ns s 100;
  let names = List.map fst (Sfi_obs.det_signature ()) in
  Alcotest.(check bool) "det counter present" true
    (List.mem "test.det_counter" names);
  Alcotest.(check bool) "non-det counter excluded" false
    (List.mem "test.sched_counter" names);
  Alcotest.(check bool) "span excluded" false (List.mem "test.sig_span" names);
  Alcotest.(check (list int)) "counter value" [ 5 ]
    (List.assoc "test.det_counter" (Sfi_obs.det_signature ()))

(* ---------- pool shard merge ---------- *)

let test_pool_shard_merge () =
  let c = Sfi_obs.Counter.make "test.pool_merge" in
  let n = 200 in
  let out =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map pool
          (fun i ->
            Sfi_obs.Counter.incr c;
            i * 2)
          (Array.init n Fun.id))
  in
  Alcotest.(check int) "work done" (n * (n - 1)) (Array.fold_left ( + ) 0 out);
  (* Workers retired their shards on pool shutdown; the merged value
     must equal the task count no matter which domain ran what. *)
  Alcotest.(check int) "merged count" n (Sfi_obs.Counter.value c)

let test_pool_merge_survives_reuse () =
  let c = Sfi_obs.Counter.make "test.pool_reuse" in
  for _ = 1 to 3 do
    Pool.with_pool ~jobs:3 (fun pool ->
        ignore (Pool.map pool (fun i -> Sfi_obs.Counter.incr c; i) (Array.init 50 Fun.id)))
  done;
  Alcotest.(check int) "three pools of 50" 150 (Sfi_obs.Counter.value c)

(* ---------- reset ---------- *)

let test_reset_zeroes () =
  let c = Sfi_obs.Counter.make "test.reset" in
  Sfi_obs.Counter.add c 11;
  Sfi_obs.reset ();
  Alcotest.(check int) "zero after reset" 0 (Sfi_obs.Counter.value c);
  Sfi_obs.Counter.add c 2;
  Alcotest.(check int) "usable after reset" 2 (Sfi_obs.Counter.value c)

(* ---------- JSON / JSONL ---------- *)

let test_json_parse_roundtrip () =
  let open Sfi_obs.Json in
  let v =
    Obj
      [
        ("name", String "x\"y\\z");
        ("n", Int (-42));
        ("f", Float 1.5);
        ("ok", Bool true);
        ("null", Null);
        ("xs", List [ Int 1; Int 2 ]);
      ]
  in
  let v' = parse (to_string v) in
  Alcotest.(check (option string)) "string escapes" (Some "x\"y\\z")
    (Option.bind (member "name" v') to_string_opt);
  Alcotest.(check (option int)) "negative int" (Some (-42))
    (Option.bind (member "n" v') to_int);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (member "ok" v') to_bool);
  (match parse "{} x" with
  | exception Parse_error _ -> ()
  | _ -> Alcotest.fail "trailing garbage accepted")

let test_jsonl_snapshot_roundtrip () =
  let c = Sfi_obs.Counter.make "test.jsonl_counter" in
  let h = Sfi_obs.Hist.make "test.jsonl_hist" in
  Sfi_obs.Counter.add c 13;
  Sfi_obs.Hist.observe h 5;
  let path = Filename.temp_file "sfi_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sfi_obs.write_jsonl ~meta:[ ("jobs", Sfi_obs.Json.Int 1) ] path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let parsed = List.rev_map Sfi_obs.Json.parse !lines in
      let open Sfi_obs.Json in
      (match
         List.find_opt (fun v -> member "schema" v <> None) parsed
       with
      | Some header ->
        Alcotest.(check (option string)) "schema" (Some "sfi-obs/1")
          (Option.bind (member "schema" header) to_string_opt)
      | None -> Alcotest.fail "no header line");
      let entry name =
        List.find_opt
          (fun v -> Option.bind (member "name" v) to_string_opt = Some name)
          parsed
      in
      (match entry "test.jsonl_counter" with
      | Some v ->
        Alcotest.(check (option int)) "counter value" (Some 13)
          (Option.bind (member "value" v) to_int)
      | None -> Alcotest.fail "counter entry missing");
      match entry "test.jsonl_hist" with
      | Some v ->
        Alcotest.(check (option int)) "hist count" (Some 1)
          (Option.bind (member "count" v) to_int);
        Alcotest.(check (option int)) "hist sum" (Some 5)
          (Option.bind (member "sum" v) to_int)
      | None -> Alcotest.fail "hist entry missing")

(* ---------- allocation ---------- *)

let test_counter_add_allocation_free () =
  match Sys.backend_type with
  | Sys.Native ->
    let c = Sfi_obs.Counter.make "test.alloc" in
    let run () =
      for i = 1 to 10_000 do
        Sfi_obs.Counter.add c (i land 3)
      done
    in
    run () (* warm: sizes this domain's shard *);
    let w0 = Gc.minor_words () in
    run ();
    let dw = Gc.minor_words () -. w0 in
    Alcotest.(check bool)
      (Printf.sprintf "enabled Counter.add allocated %.0f minor words" dw)
      true (dw < 16.)
  | Sys.Bytecode | Sys.Other _ -> ()

let () =
  let t name f = Alcotest.test_case name `Quick (with_obs f) in
  Alcotest.run "sfi_obs"
    [
      ( "counter",
        [
          t "basic accumulation" test_counter_basic;
          t "disabled is a no-op" test_counter_disabled_noop;
          t "find-or-create shares the cell" test_counter_find_or_create;
          t "kind mismatch raises" test_kind_mismatch_raises;
          t "enabled add is allocation-free" test_counter_add_allocation_free;
        ] );
      ( "hist",
        [ t "bucket laws" test_hist_bucket_laws; t "observe" test_hist_observe ] );
      ( "span",
        [
          t "accumulates" test_span_accumulates;
          t "start/stop stamps" test_span_start_stop;
          t "disabled stamps are allocation-free" test_span_stamps_allocation_free;
        ] );
      ("signature", [ t "det contents" test_det_signature_contents ]);
      ( "pool",
        [
          t "shard merge on join" test_pool_shard_merge;
          t "merge survives pool reuse" test_pool_merge_survives_reuse;
        ] );
      ("reset", [ t "zeroes and stays usable" test_reset_zeroes ]);
      ( "json",
        [
          t "parse roundtrip" test_json_parse_roundtrip;
          t "jsonl snapshot roundtrip" test_jsonl_snapshot_roundtrip;
        ] );
    ]
