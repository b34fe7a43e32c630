(* Order statistics for latency samples and for run-to-run spreads. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, reported only when at
   least [min_tail] samples lie strictly beyond its rank: a p99 over 300
   samples would be set by three requests, which is noise, not a tail. *)
let min_tail = 10

let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
    let rank = min rank n in
    if n - rank < min_tail then None else Some sorted.(rank - 1)

(* The sample count a percentile needs before [percentile] reports it. *)
let samples_needed p =
  let rec go n =
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
    if n - rank >= min_tail then n else go (n + 1)
  in
  go 1

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the "exclusive" method of Python's
   statistics.quantiles(values, n=4), so spreads printed here match the
   ones an external checker computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (i * m / 4) (n - 1)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let iqr xs =
  let q1, q3 = quartiles xs in
  q3 -. q1

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n
