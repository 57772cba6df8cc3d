type t = { xs : float array; ys : float array }

let of_points pts =
  if pts = [] then invalid_arg "Interp.of_points: empty";
  let pts = List.sort (fun (x1, _) (x2, _) -> compare x1 x2) pts in
  let rec check = function
    | (x1, _) :: ((x2, _) :: _ as rest) ->
      if x1 = x2 then invalid_arg "Interp.of_points: duplicate x";
      check rest
    | _ -> ()
  in
  check pts;
  { xs = Array.of_list (List.map fst pts); ys = Array.of_list (List.map snd pts) }

(* Index of the segment [i, i+1] used for abscissa [x]; clamps to the
   boundary segments for out-of-range queries. *)
let segment t x =
  let n = Array.length t.xs in
  if n = 1 then 0
  else if x <= t.xs.(0) then 0
  else if x >= t.xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let eval t x =
  let n = Array.length t.xs in
  if n = 1 then t.ys.(0)
  else begin
    let i = segment t x in
    let x0 = t.xs.(i) and x1 = t.xs.(i + 1) in
    let y0 = t.ys.(i) and y1 = t.ys.(i + 1) in
    y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
  end

let slope_at t x =
  let n = Array.length t.xs in
  if n = 1 then 0.
  else begin
    let i = segment t x in
    (t.ys.(i + 1) -. t.ys.(i)) /. (t.xs.(i + 1) -. t.xs.(i))
  end

let strictly_monotone ys =
  let n = Array.length ys in
  if n < 2 then true
  else begin
    let increasing = ys.(1) > ys.(0) in
    let ok = ref true in
    for i = 0 to n - 2 do
      if increasing then begin
        if ys.(i + 1) <= ys.(i) then ok := false
      end
      else if ys.(i + 1) >= ys.(i) then ok := false
    done;
    !ok
  end

let inverse_eval t y =
  if not (strictly_monotone t.ys) then
    invalid_arg "Interp.inverse_eval: curve is not strictly monotone";
  let inv = { xs = t.ys; ys = t.xs } in
  if Array.length inv.xs >= 2 && inv.xs.(0) > inv.xs.(Array.length inv.xs - 1)
  then begin
    (* Decreasing curve: reverse to obtain increasing abscissas. *)
    let n = Array.length inv.xs in
    let rev a = Array.init n (fun i -> a.(n - 1 - i)) in
    eval { xs = rev inv.xs; ys = rev inv.ys } y
  end
  else eval inv y

let linear_fit pts =
  match pts with
  | [] | [ _ ] -> invalid_arg "Interp.linear_fit: need at least two points"
  | _ ->
    let n = float_of_int (List.length pts) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
    let denom = (n *. sxx) -. (sx *. sx) in
    if denom = 0. then invalid_arg "Interp.linear_fit: degenerate x values";
    let a = ((n *. sxy) -. (sx *. sy)) /. denom in
    let b = (sy -. (a *. sx)) /. n in
    (a, b)
