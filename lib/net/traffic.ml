type kind = Data | Control | Recovery | Ack

let kind_index = function Data -> 0 | Control -> 1 | Recovery -> 2 | Ack -> 3

type t = { counts : int array; bytes : int array; max_sizes : int array }

let create () =
  { counts = Array.make 4 0; bytes = Array.make 4 0; max_sizes = Array.make 4 0 }

let record t ~kind ~size =
  let i = kind_index kind in
  t.counts.(i) <- t.counts.(i) + 1;
  t.bytes.(i) <- t.bytes.(i) + size;
  if size > t.max_sizes.(i) then t.max_sizes.(i) <- size

let count t kind = t.counts.(kind_index kind)
let bytes t kind = t.bytes.(kind_index kind)

let total_count t = Array.fold_left ( + ) 0 t.counts
let total_bytes t = Array.fold_left ( + ) 0 t.bytes

let mean_size t kind =
  let n = count t kind in
  if n = 0 then 0.0 else float_of_int (bytes t kind) /. float_of_int n

let max_size t kind = t.max_sizes.(kind_index kind)

let reset t =
  Array.fill t.counts 0 4 0;
  Array.fill t.bytes 0 4 0;
  Array.fill t.max_sizes 0 4 0
