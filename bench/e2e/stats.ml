(* Summary statistics over wall-clock samples. *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let min xs = List.fold_left Float.min infinity xs
let max xs = List.fold_left Float.max neg_infinity xs

let sum xs = List.fold_left ( +. ) 0. xs
