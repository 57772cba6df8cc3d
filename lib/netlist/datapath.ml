module B = Circuit.Builder

type b = B.t
type net = Circuit.net

let gate = B.gate

let full_adder b x y cin =
  let p = gate b Cell.Xor2 [| x; y |] in
  let sum = gate b Cell.Xor2 [| p; cin |] in
  let g = gate b Cell.And2 [| x; y |] in
  let t = gate b Cell.And2 [| p; cin |] in
  let cout = gate b Cell.Or2 [| g; t |] in
  (sum, cout)

let half_adder b x y =
  let sum = gate b Cell.Xor2 [| x; y |] in
  let cout = gate b Cell.And2 [| x; y |] in
  (sum, cout)

let check_widths name xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg (name ^ ": operand width mismatch")

let ripple_adder b xs ys ~cin =
  check_widths "Datapath.ripple_adder" xs ys;
  let n = Array.length xs in
  let sums = Array.make n cin in
  let carry = ref cin in
  for i = 0 to n - 1 do
    let s, c = full_adder b xs.(i) ys.(i) !carry in
    sums.(i) <- s;
    carry := c
  done;
  (sums, !carry)

let carry_select_adder b ~block xs ys ~cin =
  check_widths "Datapath.carry_select_adder" xs ys;
  if block <= 0 then invalid_arg "Datapath.carry_select_adder: block must be positive";
  let n = Array.length xs in
  let sums = Array.make n cin in
  let carry = ref cin in
  let lo = ref 0 in
  while !lo < n do
    let width = min block (n - !lo) in
    let xs_b = Array.sub xs !lo width and ys_b = Array.sub ys !lo width in
    let sum0, cout0 = ripple_adder b xs_b ys_b ~cin:(B.const b false) in
    let sum1, cout1 = ripple_adder b xs_b ys_b ~cin:(B.const b true) in
    for k = 0 to width - 1 do
      sums.(!lo + k) <- gate b Cell.Mux2 [| !carry; sum0.(k); sum1.(k) |]
    done;
    carry := gate b Cell.Mux2 [| !carry; cout0; cout1 |];
    lo := !lo + width
  done;
  (sums, !carry)

let add_sub b xs ys ~sub =
  check_widths "Datapath.add_sub" xs ys;
  let ys' = Array.map (fun y -> gate b Cell.Xor2 [| y; sub |]) ys in
  let sums, _ = carry_select_adder b ~block:4 xs ys' ~cin:sub in
  sums

let array_multiplier b xs ys =
  check_widths "Datapath.array_multiplier" xs ys;
  let n = Array.length xs in
  let pp j i = gate b Cell.And2 [| xs.(i); ys.(j) |] in
  (* acc holds the running low-n-bit sum after each row. *)
  let acc = Array.init n (fun i -> pp 0 i) in
  for j = 1 to n - 1 do
    (* Add (a << j) & b_j into acc[j .. n-1]; bits below j are final. *)
    let carry = ref None in
    for i = j to n - 1 do
      let p = pp j (i - j) in
      match !carry with
      | None ->
        let s, c = half_adder b acc.(i) p in
        acc.(i) <- s;
        carry := Some c
      | Some c_in ->
        let s, c = full_adder b acc.(i) p c_in in
        acc.(i) <- s;
        carry := Some c
    done
  done;
  acc

let barrel_shifter b dir xs ~amount =
  let n = Array.length xs in
  let fill =
    match dir with
    | `Left | `Right_logical -> B.const b false
    | `Right_arith -> xs.(n - 1)
  in
  let stage current k =
    let sh = amount.(k) in
    let dist = 1 lsl k in
    Array.init n (fun i ->
        let shifted =
          match dir with
          | `Left -> if i >= dist then current.(i - dist) else fill
          | `Right_logical | `Right_arith ->
            if i + dist < n then current.(i + dist) else fill
        in
        gate b Cell.Mux2 [| sh; current.(i); shifted |])
  in
  let current = ref xs in
  for k = 0 to Array.length amount - 1 do
    current := stage !current k
  done;
  !current

let bitwise b kind xs ys =
  check_widths "Datapath.bitwise" xs ys;
  Array.map2 (fun x y -> gate b kind [| x; y |]) xs ys

let isolate b ~enable xs = Array.map (fun x -> gate b Cell.And2 [| x; enable |]) xs

let rec tree b kind = function
  | [] -> invalid_arg "Datapath.tree: empty"
  | [ x ] -> x
  | xs ->
    let rec pair acc = function
      | [] -> List.rev acc
      | [ x ] -> List.rev (x :: acc)
      | x :: y :: rest -> pair (gate b kind [| x; y |] :: acc) rest
    in
    tree b kind (pair [] xs)

let and_tree b xs = tree b Cell.And2 (Array.to_list xs)

let or_tree b xs = tree b Cell.Or2 (Array.to_list xs)

let one_hot_mux b buses =
  match buses with
  | [] -> invalid_arg "Datapath.one_hot_mux: empty"
  | (_, first) :: _ ->
    let width = Array.length first in
    List.iter
      (fun (_, bus) ->
        if Array.length bus <> width then
          invalid_arg "Datapath.one_hot_mux: width mismatch")
      buses;
    Array.init width (fun i ->
        let selected = List.map (fun (sel, bus) -> gate b Cell.And2 [| sel; bus.(i) |]) buses in
        tree b Cell.Or2 selected)

let equal_const b xs value =
  let bits =
    Array.mapi
      (fun i x ->
        if (value lsr i) land 1 = 1 then x else gate b Cell.Inv [| x |])
      xs
  in
  and_tree b bits
