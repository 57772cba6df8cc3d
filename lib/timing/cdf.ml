type t = float array (* sorted ascending *)

(* Moves [a.(i)] down the max-heap held in [a.(0) .. a.(len - 1)]. *)
let sift_down (a : float array) i len =
  let x = Array.unsafe_get a i in
  let i = ref i and sifting = ref true in
  while !sifting do
    let c = (2 * !i) + 1 in
    if c >= len then sifting := false
    else begin
      let c =
        if c + 1 < len && Array.unsafe_get a (c + 1) > Array.unsafe_get a c then c + 1 else c
      in
      if Array.unsafe_get a c > x then begin
        Array.unsafe_set a !i (Array.unsafe_get a c);
        i := c
      end
      else sifting := false
    end
  done;
  Array.unsafe_set a !i x

(* Heap sort, ascending and in place, with float comparisons only: no
   element is boxed (the polymorphic [Array.sort Float.compare] boxes
   both operands of every comparison) and nothing is allocated. On
   NaN-free input it yields the array [Array.sort Float.compare] does,
   up to the order of [-0.] against [0.], which compare equal. *)
let sort_floats (a : float array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for len = n - 1 downto 1 do
    let top = Array.unsafe_get a 0 in
    Array.unsafe_set a 0 (Array.unsafe_get a len);
    Array.unsafe_set a len top;
    sift_down a 0 len
  done

(* A NaN sample would sort to an arbitrary position under any
   comparator and silently poison every quantile/probability query
   downstream; fail loudly instead. Settle times are never [-0.], so
   the characterization database's bytes do not depend on how the sort
   orders signed zeros. *)
let of_samples_owned (ys : float array) =
  if Array.length ys = 0 then invalid_arg "Cdf.of_samples: empty";
  for i = 0 to Array.length ys - 1 do
    if Float.is_nan (Array.unsafe_get ys i) then invalid_arg "Cdf.of_samples: NaN sample"
  done;
  sort_floats ys;
  ys

let of_samples xs = of_samples_owned (Array.copy xs)

let n t = Array.length t

let min_value t = t.(0)

let max_value t = t.(Array.length t - 1)

(* Number of samples <= x. *)
let count_leq t x =
  let lo = ref 0 and hi = ref (Array.length t) in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let prob_greater t x =
  float_of_int (Array.length t - count_leq t x) /. float_of_int (Array.length t)

let prob_leq t x = 1. -. prob_greater t x

let quantile t q =
  if q <= 0. then t.(0)
  else if q >= 1. then t.(Array.length t - 1)
  else begin
    let n = Array.length t in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    t.(max 0 (min (n - 1) k))
  end

let mean t = Array.fold_left ( +. ) 0. t /. float_of_int (Array.length t)

let samples t = t
