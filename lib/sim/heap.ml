(* The heap is stored as three parallel int arrays rather than an array of
   [{ time; seq; value }] records: a push into the record form allocated a
   5-word box per event, which on the simulation hot path (one push per
   network packet) was a measurable slice of the per-subrun minor-heap
   budget.  [Ticks.t] is a private int, so every array is unboxed and holds
   no pointers: a push allocates nothing, and slots at index >= [size]
   keep stale ints that nothing reads. *)

type t = {
  mutable times : Ticks.t array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; values = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* Entry [i] sorts before entry [j]: earlier time, then lower seq. *)
let lt t i j =
  let c = Ticks.compare t.times.(i) t.times.(j) in
  if c <> 0 then c < 0 else t.seqs.(i) < t.seqs.(j)

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let v = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- v

let grow t =
  let cap = Array.length t.times in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let extend a zero =
    let b = Array.make new_cap zero in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times Ticks.zero;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values 0

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && lt t l !smallest then smallest := l;
  if r < t.size && lt t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~time ~seq value =
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- time;
  t.seqs.(t.size) <- seq;
  t.values.(t.size) <- value;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top_time t =
  if t.size = 0 then invalid_arg "Heap.top_time: empty heap";
  t.times.(0)

let pop_top t =
  if t.size = 0 then invalid_arg "Heap.pop_top: empty heap";
  let v = t.values.(0) in
  t.size <- t.size - 1;
  t.times.(0) <- t.times.(t.size);
  t.seqs.(0) <- t.seqs.(t.size);
  t.values.(0) <- t.values.(t.size);
  if t.size > 0 then sift_down t 0;
  v
