(* Order statistics over timing samples. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default), so a
   quantile of two samples is their weighted mean, not either one. *)
let quantile q xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The highest percentile of a fixed ladder that still has at least ten
   samples beyond it. Below forty samples no percentile of the ladder
   qualifies, and the median is reported instead. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  let p =
    List.find_opt
      (fun p -> n *. (1.0 -. (p /. 100.0)) >= 10.0)
      [ 99.9; 99.0; 95.0; 90.0; 75.0 ]
    |> Option.value ~default:50.0
  in
  (p, quantile (p /. 100.0) xs)
