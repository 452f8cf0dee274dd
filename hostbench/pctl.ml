(* Order statistics for host-time samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank: the smallest sample with at least [p]% of the samples at
   or below it. The epsilon absorbs rounding in [p * n / 100]. *)
let rank n p = max 1 (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)))

let percentile xs p =
  match sorted xs with
  | [||] -> nan
  | a -> a.(min (Array.length a) (rank (Array.length a) p) - 1)

(* Samples strictly above the [p]th percentile's rank. *)
let beyond n p = n - rank n p

let candidates = [ 50.0; 90.0; 99.0; 99.9 ]

(* The highest candidate percentile with at least ten samples beyond it:
   a tail figure resting on fewer samples is noise, so it is not reported. *)
let tail_percentile n =
  List.fold_left
    (fun acc p -> if n > 0 && beyond n p >= 10 then Some p else acc)
    None candidates
