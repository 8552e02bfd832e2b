type t = {
  n : int;
  k : int;
  r : int;
  flow_threshold : int option;
  silence_limit : int;
}

let default_payload_size = 64

let make ?(k = 3) ?r ?flow_threshold ?silence_limit ~n () =
  let r = Option.value r ~default:((2 * k) + 4) in
  let silence_limit = Option.value silence_limit ~default:(2 * k) in
  let flow_threshold = Option.value flow_threshold ~default:None in
  if n <= 0 then invalid_arg "Config.make: n must be positive";
  if k <= 0 then invalid_arg "Config.make: k must be positive";
  if r <= k then invalid_arg "Config.make: r must exceed k";
  if silence_limit <= 0 then invalid_arg "Config.make: silence_limit must be positive";
  (match flow_threshold with
  | Some threshold when threshold <= 0 ->
      invalid_arg "Config.make: flow threshold must be positive"
  | Some _ | None -> ());
  { n; k; r; flow_threshold; silence_limit }

let resilience t = (t.n - 1) / 2
