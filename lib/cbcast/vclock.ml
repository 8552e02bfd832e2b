type t = int array

let create ~n =
  if n <= 0 then invalid_arg "Vclock.create: n must be positive";
  Array.make n 0

let of_array a = Array.copy a
let to_array t = Array.copy t
let copy = Array.copy

let n t = Array.length t

let get t node = t.(Net.Node_id.to_int node)

let tick t node =
  let i = Net.Node_id.to_int node in
  t.(i) <- t.(i) + 1

let merge t other =
  Array.iteri (fun i v -> if v > t.(i) then t.(i) <- v) other

let min_into t other =
  Array.iteri (fun i v -> if v < t.(i) then t.(i) <- v) other

let le a b =
  let ok = ref true in
  Array.iteri (fun i v -> if v > b.(i) then ok := false) a;
  !ok

let equal a b = a = b

let deliverable ~msg_vt ~from ~local =
  let sender = Net.Node_id.to_int from in
  let ok = ref (msg_vt.(sender) = local.(sender) + 1) in
  Array.iteri
    (fun i v -> if i <> sender && v > local.(i) then ok := false)
    msg_vt;
  !ok

let encoded_size t = 4 * Array.length t

let pp ppf t =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_seq t)
