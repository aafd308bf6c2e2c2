(* The statistics every benchmark number goes through: per-run
   percentiles of operation latencies, and the across-run quartiles and
   verdict rules [compare] applies. Failed operations enter latency
   samples as [infinity], so they miss every percentile they reach. *)

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile, [p] in [0, 100]; nan on no samples *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = percentile_sorted (sorted_copy xs) p

(* the highest of the usual reporting levels that still has at least ten
   samples beyond it; [None] below ten samples *)
let tail_level n =
  List.fold_left
    (fun acc p -> if float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0 -. 1e-6 then Some p else acc)
    None
    [ 50.0; 75.0; 90.0; 99.0; 99.9 ]

let median xs =
  let a = sorted_copy (Array.of_list xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (its
   default "exclusive" method) computes them, so spreads reported here
   match the ones the acceptance checks recompute. Needs two values. *)
let quartiles xs =
  let a = sorted_copy (Array.of_list xs) in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Summary.quartiles: needs at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* inter-quartile distance as a share of the median; 0 for one run *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let q1, _, q3 = quartiles xs in
      let m = median xs in
      if m = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs m

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

(* how much worse [b] is than [a], as a share of [a] (negative = better) *)
let worsening better a b =
  if a = 0.0 then if b = a then 0.0 else infinity
  else
    match better with
    | Lower -> (b -. a) /. Float.abs a
    | Higher -> (a -. b) /. Float.abs a

type verdict = Pass | Regression | Unresolved

let verdict_label = function
  | Pass -> "ok"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

(* [a] = the parent's runs, [b] = the change's. A spread wider than the
   bound on either side leaves the metric unresolved unless every run of
   the change reads better than every run of the parent; otherwise the
   change regresses when its median is worse by more than the bound. *)
let verdict ~better ~bound a b =
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> worsening better x y < 0.0) a) b
  in
  if (spread a > bound || spread b > bound) && not all_better then Unresolved
  else if worsening better (median a) (median b) > bound then Regression
  else Pass
