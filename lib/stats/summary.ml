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

(* In-place heap sort of [a.(0 .. n - 1)]: [a] is a flat float array, so a
   comparison reads two unboxed floats, where the polymorphic [Array.sort]
   boxes both operands. *)
let rec sift a i n =
  let c = (2 * i) + 1 in
  let c = if c + 1 < n && Float.compare a.(c) a.(c + 1) < 0 then c + 1 else c in
  if c < n && Float.compare a.(i) a.(c) < 0 then begin
    let x = a.(i) in
    a.(i) <- a.(c);
    a.(c) <- x;
    sift a c n
  end

let sort a n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done

let interpolate sorted n q =
  if n = 1 then sorted.(0)
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let nearest sorted n q =
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(min n (max 1 rank) - 1)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Summary.percentile: q out of range";
  interpolate sorted n q

(* The one core: [sorted.(0 .. count - 1)] ascending and non-empty, [sum]
   as the caller keeps it. *)
let of_sorted quantile sorted count ~sum =
  let mean = sum /. float_of_int count in
  let var = ref 0.0 in
  for i = 0 to count - 1 do
    let d = sorted.(i) -. mean in
    var := !var +. (d *. d)
  done;
  {
    count;
    mean;
    stddev = sqrt (!var /. float_of_int count);
    min = sorted.(0);
    max = sorted.(count - 1);
    p50 = quantile sorted count 0.5;
    p95 = quantile sorted count 0.95;
    p99 = quantile sorted count 0.99;
  }

let interpolated a count =
  if count = 0 then empty
  else begin
    sort a count;
    let sum = ref 0.0 in
    for i = 0 to count - 1 do
      sum := !sum +. a.(i)
    done;
    of_sorted interpolate a count ~sum:!sum
  end

let nearest_rank a count ~sum =
  if count = 0 then empty
  else begin
    sort a count;
    of_sorted nearest a count ~sum
  end

let of_list samples =
  let a = Array.of_list samples in
  interpolated a (Array.length a)

let of_ints samples = of_list (List.map float_of_int samples)
