(* Golden-file regression tests for small-scale versions of the paper's
   fig. 2 (per-instruction error-probability curves), fig. 5 (median
   sweep) and fig. 6 (matmul sweep).

   The configurations are tiny but fully deterministic: fixed seeds,
   fixed characterization depth, serial-equivalent campaigns. The
   expected outputs live in test/golden/*.json; comparison is
   field-by-field with a relative float tolerance, so a change in the
   timing engine, the injector or the campaign aggregation that moves
   any reported number past noise shows up as a diff against a
   reviewable JSON file.

   To regenerate after an intentional change:

     SFI_GOLDEN_REGEN=1 dune exec test/test_golden.exe

   then review the git diff of test/golden/. *)

open Sfi_util
open Sfi_core
module Json = Sfi_obs.Json

let regen = Sys.getenv_opt "SFI_GOLDEN_REGEN" = Some "1"

(* Under `dune runtest` the cwd is the sandboxed test directory, where
   (deps (glob_files golden/*.json)) materializes the files; a regen run
   from the project root writes into the source tree. *)
let golden_dir = if Sys.file_exists "golden" then "golden" else "test/golden"

let flow =
  lazy (Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 300 } ())

(* ---------- figure builders ---------- *)

let num f = if Float.is_nan f then Json.Null else Json.Float f

let fig2_small () =
  let db = Flow.char_db (Lazy.force flow) ~vdd:0.7 in
  let fsta = Flow.sta_limit_mhz (Lazy.force flow) ~vdd:0.7 in
  let freqs = List.init 9 (fun i -> fsta *. (0.95 +. (0.06 *. float_of_int i))) in
  let curve cls endpoint scale =
    Json.Obj
      [
        ("class", Json.String (Op_class.name cls));
        ("endpoint", Json.Int endpoint);
        ("scale", Json.Float scale);
        ( "probs",
          Json.List
            (List.map
               (fun f ->
                 num
                   (Sfi_timing.Characterize.error_probability db cls ~endpoint
                      ~period_ps:(1e6 /. f) ~scale))
               freqs) );
      ]
  in
  Json.Obj
    [
      ("figure", Json.String "fig2_small");
      ("freqs_mhz", Json.List (List.map num freqs));
      ( "curves",
        Json.List
          [
            curve Op_class.Mul 24 1.0;
            curve Op_class.Mul 3 1.0;
            curve Op_class.Add 24 1.0;
            curve Op_class.Add 3 1.05;
          ] );
    ]

(* The sweep figures serialize through the one versioned point codec
   (schema sfi-point/1) — the same renderer `sfi campaign --json` and the
   speed gates use — so a codec change shows up here as a golden diff. *)
let sweep_json ~figure ~bench ~sigma ~rels ~trials =
  let fl = Lazy.force flow in
  let fsta = Flow.sta_limit_mhz fl ~vdd:0.7 in
  let model = Flow.model_c fl ~vdd:0.7 ~sigma () in
  let freqs = List.map (fun r -> fsta *. r) rels in
  let spec = Sfi_fi.Campaign.Spec.(default |> with_trials trials |> with_seed 42) in
  let points = Sfi_fi.Campaign.run_sweep spec ~bench ~model ~freqs_mhz:freqs in
  Sfi_fi.Campaign.Point_json.of_sweep
    ~meta:[ ("figure", Json.String figure); ("trials", Json.Int trials) ]
    points

let fig5_small () =
  sweep_json ~figure:"fig5_small"
    ~bench:(Sfi_kernels.Median.create ~n:17 ~seed:3 ())
    ~sigma:0.010
    ~rels:[ 0.95; 1.05; 1.15; 1.30 ]
    ~trials:8

let fig6_small () =
  sweep_json ~figure:"fig6_small"
    ~bench:(Sfi_kernels.Matmul.create ~n:6 ~bits:8 ~seed:4 ())
    ~sigma:0.010
    ~rels:[ 1.0; 1.12; 1.28 ]
    ~trials:6

(* ---------- tolerant structural comparison ---------- *)

let tol = 1e-6

let rec diff path a b =
  let open Json in
  match (a, b) with
  | Null, Null -> None
  | Bool x, Bool y when x = y -> None
  | String x, String y when x = y -> None
  | (Int _ | Float _), (Int _ | Float _) -> (
    match (to_float a, to_float b) with
    | Some x, Some y when Float.abs (x -. y) <= tol *. Float.max 1. (Float.abs x) ->
      None
    | _ -> Some (Printf.sprintf "%s: %s <> %s" path (to_string a) (to_string b)))
  | List xs, List ys ->
    if List.length xs <> List.length ys then
      Some
        (Printf.sprintf "%s: list length %d <> %d" path (List.length xs)
           (List.length ys))
    else
      List.find_map Fun.id
        (List.mapi (fun i (x, y) -> diff (Printf.sprintf "%s[%d]" path i) x y)
           (List.combine xs ys))
  | Obj xs, Obj ys ->
    if List.map fst xs <> List.map fst ys then
      Some (Printf.sprintf "%s: object keys differ" path)
    else
      List.find_map
        (fun (k, x) -> diff (path ^ "." ^ k) x (List.assoc k ys))
        xs
  | _ -> Some (Printf.sprintf "%s: %s <> %s" path (to_string a) (to_string b))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name build () =
  let path = Filename.concat golden_dir (name ^ ".json") in
  let actual = build () in
  if regen then begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Json.to_string actual ^ "\n"));
    Printf.printf "regenerated %s\n" path
  end
  else begin
    let expected = Json.parse (read_file path) in
    match diff name expected actual with
    | None -> ()
    | Some msg ->
      Alcotest.failf "golden mismatch (SFI_GOLDEN_REGEN=1 to regenerate): %s" msg
  end

let () =
  Alcotest.run "sfi_golden"
    [
      ( "figures",
        [
          Alcotest.test_case "fig2 small grid" `Quick (check_golden "fig2_small" fig2_small);
          Alcotest.test_case "fig5 small sweep" `Quick (check_golden "fig5_small" fig5_small);
          Alcotest.test_case "fig6 small sweep" `Quick (check_golden "fig6_small" fig6_small);
        ] );
    ]
