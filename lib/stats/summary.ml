type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let empty =
  { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Summary.percentile: q out of range";
  if n = 1 then sorted.(0)
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let of_list samples =
  match samples with
  | [] -> empty
  | _ ->
      let sorted = Array.of_list samples in
      Array.sort Float.compare sorted;
      let count = Array.length sorted in
      let sum = Array.fold_left ( +. ) 0.0 sorted in
      let mean = sum /. float_of_int count in
      let var =
        Array.fold_left
          (fun acc x ->
            let d = x -. mean in
            acc +. (d *. d))
          0.0 sorted
        /. float_of_int count
      in
      {
        count;
        mean;
        stddev = sqrt var;
        min = sorted.(0);
        max = sorted.(count - 1);
        p50 = percentile sorted 0.5;
        p95 = percentile sorted 0.95;
        p99 = percentile sorted 0.99;
      }

let of_ints samples = of_list (List.map float_of_int samples)
