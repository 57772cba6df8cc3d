(* Timing and summary statistics. *)

let now = Unix.gettimeofday

(* Wall seconds of [f ()] (wall, not CPU: CPU time sums over domains and
   would hide the pool's parallelism). *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let minimum xs = List.fold_left Float.min infinity xs

(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so
   spreads computed here match the ones a reader recomputes from the
   printed values. A single value is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
  end

(* Nearest-rank percentile, for the per-trial latency distribution. *)
let percentile xs p =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Peak resident set of this process in MB: the kernel's high-water mark
   (VmHWM), or the OCaml heap's peak where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some line ->
              if String.starts_with ~prefix:"VmHWM:" line then
                Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
              else scan ()
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. (1024. *. 1024.)
