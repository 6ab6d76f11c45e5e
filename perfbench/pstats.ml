(* Order statistics for the benchmark's reports.

   Quantiles are nearest-rank over the sorted sample: the q-quantile of n
   samples is the ceil(q*n)-th smallest.  A tail percentile is only
   reported when at least [min_beyond] samples lie strictly above its
   rank, so a p99 needs 1000 samples and a p95 200; with fewer, the
   estimate is one of the last handful of samples and swings from run to
   run. *)

let min_beyond = 10

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* 0-based index of the nearest-rank q-quantile among n samples *)
let rank n q =
  if q < 0.0 || q > 1.0 then invalid_arg "Pstats.rank: q outside [0, 1]";
  max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let beyond n q = n - 1 - rank n q

let quantile samples q =
  let n = Array.length samples in
  if n = 0 then None else Some (sorted samples).(rank n q)

(* A tail percentile, refused (None) when fewer than [min_beyond] samples
   lie beyond it. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 || beyond n q < min_beyond then None else quantile samples q

let median samples = quantile samples 0.5

let mean samples =
  let n = Array.length samples in
  if n = 0 then None
  else Some (Array.fold_left ( +. ) 0.0 samples /. float_of_int n)

let geomean samples =
  let n = Array.length samples in
  if n = 0 then None
  else
    Some
      (exp
         (Array.fold_left (fun acc x -> acc +. log x) 0.0 samples
         /. float_of_int n))
