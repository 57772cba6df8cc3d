(* Tests for the persistent content-addressed cache (Sfi_cache): CRC
   pinning against the benchmark kernel's reference, fingerprint
   injectivity properties, entry round-trips, corruption/truncation
   rejection, maintenance (scan/prune), and the end-to-end acceptance
   criterion — a warm-cache rerun of characterization and a Monte-Carlo
   campaign is bit-identical to the cold run with zero characterization
   trials performed and an unchanged deterministic obs signature. *)

open Sfi_timing
open Sfi_core

let () = Sfi_obs.set_enabled true

let counter name = Sfi_obs.Counter.make ~det:false name

let c_hits = counter "cache.hits"

let c_misses = counter "cache.misses"

let c_stores = counter "cache.stores"

let c_corrupt = counter "cache.corrupt_rejected"

let c_trials = counter "characterize.trials"

let value = Sfi_obs.Counter.value

(* Each test gets a private directory; the cache is always disabled
   again afterwards so test order cannot matter. *)
let seq = ref 0

let with_temp_cache f =
  incr seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sfi-test-cache.%d.%d" (Unix.getpid ()) !seq)
  in
  Sfi_cache.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      ignore (Sfi_cache.prune ~all:true ~dir () : int);
      (try Unix.rmdir dir with Unix.Unix_error _ -> () | Sys_error _ -> ());
      Sfi_cache.set_dir None)
    (fun () -> f dir)

let the_entry dir =
  match Sfi_cache.scan ~dir with
  | [ e ] -> e
  | es -> Alcotest.failf "expected exactly one entry, scan found %d" (List.length es)

let corrupt_byte path pos =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let pos = if pos < String.length content then pos else String.length content / 2 in
  let b = Bytes.of_string content in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc b);
  String.length content

(* ---------- CRC-32 pinned to the benchmark kernel's reference ---------- *)

let test_crc_pin () =
  (* The host-side CRC must be bit-identical to the algorithm the crc32
     benchmark kernel runs on the simulated core. *)
  let cases =
    [ ""; "a"; "123456789"; "The quick brown fox jumps over the lazy dog";
      String.init 256 Char.chr ]
  in
  List.iter
    (fun s ->
      let bytes = Array.init (String.length s) (fun i -> Char.code s.[i]) in
      Alcotest.(check int)
        (Printf.sprintf "crc of %d bytes" (String.length s))
        (Sfi_kernels.Crc32.reference bytes) (Sfi_cache.crc32 s))
    cases;
  (* The catalogue check value of the reflected CRC-32. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Sfi_cache.crc32 "123456789")

(* ---------- fingerprints ---------- *)

let test_fingerprint_properties () =
  let open Sfi_cache.Fingerprint in
  let digest adds =
    let fp = create "test/1" in
    List.iter (fun f -> f fp) adds;
    hex fp
  in
  Alcotest.(check string) "deterministic"
    (digest [ (fun fp -> add_int fp 42); (fun fp -> add_string fp "x") ])
    (digest [ (fun fp -> add_int fp 42); (fun fp -> add_string fp "x") ]);
  Alcotest.(check bool) "label separates" false
    (hex (create "a/1") = hex (create "b/1"));
  Alcotest.(check bool) "string boundaries hashed" false
    (digest [ (fun fp -> add_string fp "ab"); (fun fp -> add_string fp "c") ]
    = digest [ (fun fp -> add_string fp "a"); (fun fp -> add_string fp "bc") ]);
  Alcotest.(check bool) "array boundaries hashed" false
    (digest [ (fun fp -> add_int_array fp [| 1; 2 |]); (fun fp -> add_int_array fp [| 3 |]) ]
    = digest [ (fun fp -> add_int_array fp [| 1 |]); (fun fp -> add_int_array fp [| 2; 3 |]) ]);
  Alcotest.(check bool) "float hashed by bits" false
    (digest [ (fun fp -> add_float fp 0.) ] = digest [ (fun fp -> add_float fp (-0.)) ]);
  Alcotest.(check int) "hex is 16 digits" 16 (String.length (hex (create "x")))

(* ---------- store / load round-trip ---------- *)

let test_roundtrip () =
  with_temp_cache @@ fun dir ->
  let v = ("payload", [| 1.5; -2.25 |], [ 1; 2; 3 ]) in
  let h0 = value c_hits and m0 = value c_misses and s0 = value c_stores in
  Sfi_cache.store ~namespace:"ns" ~key:"k1" v;
  Alcotest.(check int) "store counted" (s0 + 1) (value c_stores);
  (match (Sfi_cache.load ~namespace:"ns" ~key:"k1" : (string * float array * int list) option) with
  | Some v' -> Alcotest.(check bool) "value round-trips" true (v = v')
  | None -> Alcotest.fail "load returned None after store");
  Alcotest.(check int) "hit counted" (h0 + 1) (value c_hits);
  Alcotest.(check bool) "absent key misses" true
    ((Sfi_cache.load ~namespace:"ns" ~key:"k2" : unit option) = None);
  Alcotest.(check bool) "other namespace misses" true
    ((Sfi_cache.load ~namespace:"other" ~key:"k1" : unit option) = None);
  Alcotest.(check int) "misses counted" (m0 + 2) (value c_misses);
  let e = the_entry dir in
  Alcotest.(check string) "entry namespace" "ns" e.Sfi_cache.namespace;
  Alcotest.(check string) "entry key" "k1" e.Sfi_cache.key;
  Alcotest.(check bool) "entry valid" true e.Sfi_cache.valid

let test_disabled_noop () =
  Sfi_cache.set_dir None;
  Alcotest.(check bool) "disabled" false (Sfi_cache.enabled ());
  Sfi_cache.store ~namespace:"ns" ~key:"k" 42;
  Alcotest.(check bool) "load disabled" true
    ((Sfi_cache.load ~namespace:"ns" ~key:"k" : int option) = None);
  let calls = ref 0 in
  let v =
    Sfi_cache.memo ~namespace:"ns" ~key:"k" ~valid:(fun _ -> true) (fun () ->
        incr calls;
        7)
  in
  Alcotest.(check int) "memo computes" 7 v;
  Alcotest.(check int) "compute ran" 1 !calls

(* ---------- corruption and truncation rejection ---------- *)

let test_corruption_rejected () =
  with_temp_cache @@ fun dir ->
  Sfi_cache.store ~namespace:"ns" ~key:"k" [| 3; 1; 4; 1; 5 |];
  let path = Filename.concat dir (the_entry dir).Sfi_cache.file in
  ignore (corrupt_byte path 40 : int);
  let r0 = value c_corrupt in
  Alcotest.(check bool) "corrupt entry not loaded" true
    ((Sfi_cache.load ~namespace:"ns" ~key:"k" : int array option) = None);
  Alcotest.(check int) "rejection counted" (r0 + 1) (value c_corrupt);
  Alcotest.(check bool) "bad file removed" false (Sys.file_exists path);
  (* memo recomputes and repopulates *)
  let v =
    Sfi_cache.memo ~namespace:"ns" ~key:"k" ~valid:(fun _ -> true) (fun () -> [| 9 |])
  in
  Alcotest.(check bool) "recomputed" true (v = [| 9 |]);
  Alcotest.(check bool) "repopulated" true
    ((Sfi_cache.load ~namespace:"ns" ~key:"k" : int array option) = Some [| 9 |]);
  (* An intact entry failing the caller's post-load check is a miss:
     recomputed and overwritten, not counted as corrupt. *)
  let h0 = value c_hits and m0 = value c_misses and s0 = value c_stores in
  let v =
    Sfi_cache.memo ~namespace:"ns" ~key:"k"
      ~valid:(fun a -> Array.length a = 2)
      (fun () -> [| 2; 7 |])
  in
  Alcotest.(check bool) "invalid entry recomputed" true (v = [| 2; 7 |]);
  Alcotest.(check (triple int int int))
    "invalid entry is a miss, then stored" (h0, m0 + 1, s0 + 1)
    (value c_hits, value c_misses, value c_stores);
  Alcotest.(check int) "not counted as corrupt" (r0 + 1) (value c_corrupt);
  Alcotest.(check bool) "entry overwritten" true
    ((Sfi_cache.load ~namespace:"ns" ~key:"k" : int array option) = Some [| 2; 7 |])

let test_truncation_rejected () =
  with_temp_cache @@ fun dir ->
  Sfi_cache.store ~namespace:"ns" ~key:"k" (String.make 64 'x');
  let path = Filename.concat dir (the_entry dir).Sfi_cache.file in
  (* Truncate at several byte counts, covering every header field. *)
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun keep ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (String.sub content 0 keep));
      Alcotest.(check bool)
        (Printf.sprintf "truncated to %d bytes rejected" keep)
        true
        ((Sfi_cache.load ~namespace:"ns" ~key:"k" : string option) = None))
    [ 0; 4; 11; 20; String.length content - 1 ]

let test_version_mismatch_rejected () =
  with_temp_cache @@ fun dir ->
  Sfi_cache.store ~namespace:"ns" ~key:"k" 1;
  let path = Filename.concat dir (the_entry dir).Sfi_cache.file in
  (* Byte 7 is the low byte of the big-endian schema version. *)
  ignore (corrupt_byte path 7 : int);
  Alcotest.(check bool) "other version not loaded" true
    ((Sfi_cache.load ~namespace:"ns" ~key:"k" : int option) = None)

(* ---------- scan and prune ---------- *)

let test_scan_and_prune () =
  with_temp_cache @@ fun dir ->
  Sfi_cache.store ~namespace:"a" ~key:"k1" 1;
  Sfi_cache.store ~namespace:"b" ~key:"k2" 2;
  (let entries = Sfi_cache.scan ~dir in
   Alcotest.(check int) "two entries" 2 (List.length entries);
   Alcotest.(check bool) "all valid" true
     (List.for_all (fun e -> e.Sfi_cache.valid) entries));
  (* Corrupt one; prune must evict exactly that one. *)
  let victim =
    match
      List.find_opt (fun e -> e.Sfi_cache.namespace = "a") (Sfi_cache.scan ~dir)
    with
    | Some e -> Filename.concat dir e.Sfi_cache.file
    | None -> Alcotest.fail "entry for namespace a not found"
  in
  ignore (corrupt_byte victim 30 : int);
  (* A leftover temp file from an interrupted writer is swept too. *)
  let tmp = Filename.concat dir "b-k2.sfic.tmp.99999" in
  let oc = open_out_bin tmp in
  output_string oc "partial";
  close_out oc;
  Alcotest.(check int) "prune removes the invalid entry" 1
    (Sfi_cache.prune ~dir ());
  Alcotest.(check bool) "temp file swept" false (Sys.file_exists tmp);
  Alcotest.(check int) "valid entry survives" 1 (List.length (Sfi_cache.scan ~dir));
  Alcotest.(check int) "prune --all clears" 1 (Sfi_cache.prune ~all:true ~dir ());
  Alcotest.(check int) "empty after prune --all" 0 (List.length (Sfi_cache.scan ~dir))

(* ---------- characterization: cold vs warm bit-identity ---------- *)

let serial = Sfi_util.Spec.(with_jobs 1 default)

let test_characterize_cold_warm () =
  with_temp_cache @@ fun dir ->
  let alu = Sfi_netlist.Alu.build () in
  let run () = Characterize.run ~cycles:40 ~seed:11 ~spec:serial ~vdd:0.7 alu in
  Sfi_obs.reset ();
  let cold = run () in
  let sig_cold = Sfi_obs.det_signature () in
  let trials_cold = value c_trials in
  Alcotest.(check bool) "cold run performed trials" true (trials_cold > 0);
  Alcotest.(check int) "one chardb entry on disk" 1 (List.length (Sfi_cache.scan ~dir));
  Sfi_obs.reset ();
  let warm = run () in
  let sig_warm = Sfi_obs.det_signature () in
  Alcotest.(check bool) "warm db bit-identical" true (compare cold warm = 0);
  Alcotest.(check int) "warm run performed zero trials" 0 (value c_trials);
  Alcotest.(check int) "warm run hit the cache" 1 (value c_hits);
  Alcotest.(check bool) "det signature unchanged" true (sig_cold = sig_warm)

let test_characterize_corrupt_recompute () =
  with_temp_cache @@ fun dir ->
  let alu = Sfi_netlist.Alu.build () in
  let run () = Characterize.run ~cycles:40 ~seed:11 ~spec:serial ~vdd:0.7 alu in
  let cold = run () in
  let path = Filename.concat dir (the_entry dir).Sfi_cache.file in
  ignore (corrupt_byte path 4096 : int);
  Sfi_obs.reset ();
  let recomputed = run () in
  Alcotest.(check bool) "recomputed db bit-identical" true (compare cold recomputed = 0);
  Alcotest.(check int) "corruption detected" 1 (value c_corrupt);
  Alcotest.(check bool) "recompute performed trials" true (value c_trials > 0);
  (* The recompute re-stored a valid entry. *)
  Alcotest.(check bool) "entry rewritten valid" true (the_entry dir).Sfi_cache.valid

(* ---------- end-to-end: flow + campaign, cold vs warm ---------- *)

let test_campaign_cold_warm () =
  let bench = Sfi_kernels.Median.create ~n:9 () in
  let config = { Flow.default_config with Flow.char_cycles = 250 } in
  let phase () =
    (* A fresh flow per phase: its in-memory char_db memo must not leak
       between phases — only the disk store may. *)
    let flow = Flow.create ~config () in
    let fsta = Flow.sta_limit_mhz flow ~vdd:0.7 in
    let model = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
    let spec =
      Sfi_fi.Campaign.Spec.(
        default |> with_trials 4 |> with_seed 3 |> with_jobs 1)
    in
    let p = Sfi_fi.Campaign.run spec ~bench ~model ~freq_mhz:(fsta *. 1.15) in
    (p, Flow.char_db flow ~vdd:0.7)
  in
  with_temp_cache @@ fun dir ->
  Sfi_obs.reset ();
  let p_cold, db_cold = phase () in
  let sig_cold = Sfi_obs.det_signature () in
  Alcotest.(check bool) "cold phase characterized" true (value c_trials > 0);
  Sfi_obs.reset ();
  let p_warm, db_warm = phase () in
  let sig_warm = Sfi_obs.det_signature () in
  Alcotest.(check bool) "campaign point bit-identical" true (compare p_cold p_warm = 0);
  Alcotest.(check bool) "char db bit-identical" true (compare db_cold db_warm = 0);
  Alcotest.(check int) "warm phase ran zero characterization trials" 0 (value c_trials);
  Alcotest.(check bool) "det signature unchanged between phases" true
    (sig_cold = sig_warm);
  ignore dir

let test_reference_cycles_disk () =
  with_temp_cache @@ fun dir ->
  (* An image no other test in this binary builds: the in-process memo
     is keyed by image content and shared with the other tests here, so
     only a fresh image reaches the disk path. *)
  let bench = Sfi_kernels.Median.create ~n:11 () in
  let n1 = Sfi_fi.Campaign.reference_cycles bench in
  Alcotest.(check bool) "positive cycle count" true (n1 > 0);
  let on_disk =
    List.filter (fun e -> e.Sfi_cache.namespace = "refcycles") (Sfi_cache.scan ~dir)
  in
  Alcotest.(check int) "refcycles entry stored" 1 (List.length on_disk);
  (* A renamed alias of the same image is the same memo entry: same
     count, and neither a disk load nor a store (both happen only when
     the in-process memo computes). *)
  let before = (value c_hits, value c_misses, value c_stores) in
  let alias = { bench with Sfi_kernels.Bench.name = "median-alias" } in
  let n2 = Sfi_fi.Campaign.reference_cycles alias in
  Alcotest.(check int) "alias shares the count" n1 n2;
  Alcotest.(check (triple int int int)) "no disk load or store" before
    (value c_hits, value c_misses, value c_stores)

(* Domains asking at once for a fresh image's reference cycles wait for
   one computation: one disk miss and one store, and every domain gets
   the same count. *)
let test_reference_cycles_once () =
  with_temp_cache @@ fun dir ->
  let bench = Sfi_kernels.Median.create ~n:13 ~seed:5 () in
  let n_domains = 4 in
  let arrived = Atomic.make 0 in
  let m0 = value c_misses and s0 = value c_stores in
  let ask () =
    Atomic.incr arrived;
    while Atomic.get arrived < n_domains do
      Domain.cpu_relax ()
    done;
    Sfi_fi.Campaign.reference_cycles bench
  in
  let counts = List.map Domain.join (List.init n_domains (fun _ -> Domain.spawn ask)) in
  let stats, _ = Sfi_kernels.Bench.run_fault_free bench in
  List.iter
    (Alcotest.(check int) "every domain gets the count" stats.Sfi_sim.Cpu.cycles)
    counts;
  Alcotest.(check int) "one computation missed the disk" (m0 + 1) (value c_misses);
  Alcotest.(check int) "one computation stored" (s0 + 1) (value c_stores);
  Alcotest.(check int) "one refcycles entry" 1
    (List.length
       (List.filter (fun e -> e.Sfi_cache.namespace = "refcycles") (Sfi_cache.scan ~dir)))

(* A computation that raises leaves its cell empty: the next caller
   computes again, and other keys are unaffected. *)
let test_once_raise_leaves_empty () =
  let once = Sfi_cache.Once.create () in
  let calls = ref 0 in
  let get key f = Sfi_cache.Once.get once ~key (fun () -> incr calls; f ()) in
  Alcotest.check_raises "first computation raises" Exit (fun () ->
      ignore (get "a" (fun () -> raise Exit) : int));
  Alcotest.(check int) "recomputed after the raise" 1 (get "a" (fun () -> 1));
  Alcotest.(check int) "then memoized" 1 (get "a" (fun () -> 2));
  Alcotest.(check int) "distinct key" 3 (get "b" (fun () -> 3));
  Alcotest.(check int) "three computations" 3 !calls

let () =
  Alcotest.run "sfi_cache"
    [
      ( "integrity",
        [
          Alcotest.test_case "crc32 pinned to kernel reference" `Quick test_crc_pin;
          Alcotest.test_case "fingerprint properties" `Quick test_fingerprint_properties;
        ] );
      ( "entries",
        [
          Alcotest.test_case "store/load round-trip" `Quick test_roundtrip;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "corruption rejected" `Quick test_corruption_rejected;
          Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
          Alcotest.test_case "version mismatch rejected" `Quick
            test_version_mismatch_rejected;
          Alcotest.test_case "scan and prune" `Quick test_scan_and_prune;
        ] );
      ( "warm runs",
        [
          Alcotest.test_case "characterize cold/warm bit-identical" `Quick
            test_characterize_cold_warm;
          Alcotest.test_case "characterize corrupt entry recomputed" `Quick
            test_characterize_corrupt_recompute;
          Alcotest.test_case "campaign cold/warm bit-identical" `Quick
            test_campaign_cold_warm;
          Alcotest.test_case "reference cycles shared on disk" `Quick
            test_reference_cycles_disk;
        ] );
      ( "once",
        [
          Alcotest.test_case "reference cycles computed once" `Quick
            test_reference_cycles_once;
          Alcotest.test_case "a raise leaves the cell empty" `Quick
            test_once_raise_leaves_empty;
        ] );
    ]
