(* Summary statistics over the benchmark's samples. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let mean (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank [p]th percentile, with the number of samples strictly
   beyond the chosen rank: a tail percentile is only meaningful when
   that count is at least ten. *)
let percentile (p : float) (xs : float list) : float * int =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  let rank = max 1 (min n rank) in
  (a.(rank - 1), n - rank)

let geomean (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ -> exp (mean (List.map log xs))

(* First and third quartile as Python's [statistics.quantiles xs ~n:4]
   computes them (the default "exclusive" method). *)
let quartiles (xs : float list) : float * float =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 3)

(* Inter-quartile distance as a share of the median: the spread the
   benchmark's bounds are checked against. *)
let spread (xs : float list) : float =
  if List.length xs < 2 then 0.0
  else
    let q1, q3 = quartiles xs in
    (q3 -. q1) /. median xs
