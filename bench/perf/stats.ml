(** Order statistics for the benchmark's timings.

    [median] and [quartiles] follow Python's [statistics.median] and
    [statistics.quantiles(values, n=4)] (the "exclusive" method), so a
    spread computed here matches one computed from the printed values
    by any other tool using that library. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** [(q1, q2, q3)]; needs at least two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(** The nearest rank of the [p]th percentile of [n] samples (1-based);
    the epsilon keeps e.g. 99.9% of 10000 at rank 9990. *)
let rank ~n p = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))

(** Nearest-rank percentile. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (rank ~n p - 1)))

(** The percentiles a tail may be reported at, highest first. *)
let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(** Samples strictly beyond the nearest-rank [p]th percentile of [n]. *)
let beyond ~n p = n - rank ~n p

(** The highest percentile of {!ladder} with at least ten of [n]
    samples beyond it ([None] below twenty samples). *)
let tail_pct n = List.find_opt (fun p -> beyond ~n p >= 10) ladder
