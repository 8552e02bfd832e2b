(* Every queued event is one int code in a [Heap.t]: the heap's three
   parallel arrays hold (time, seq, code) and a push or pop allocates
   nothing.  The low [kind_bits] of a code index the event's kind and the
   rest is its int argument.  Each kind was registered once with a handler
   and a profiling label, so an event costs no record and no closure per
   occurrence. *)

type t = {
  mutable now : Ticks.t;
  mutable next_seq : int;
  queue : Heap.t;
  mutable kinds : kind array;
  mutable kind_count : int;
}

and kind = { code : int; label : string; handler : int -> unit; owner : t }

let kind_bits = 10
let kind_mask = (1 lsl kind_bits) - 1
let max_arg = max_int lsr kind_bits

let create () =
  {
    now = Ticks.zero;
    next_seq = 0;
    queue = Heap.create ();
    kinds = [||];
    kind_count = 0;
  }

let now t = t.now

let pending t = Heap.length t.queue

let register t ~label handler =
  let code = t.kind_count in
  if code > kind_mask then invalid_arg "Engine.register: too many kinds";
  let kind = { code; label; handler; owner = t } in
  (* The table starts empty and doubles from 8: every campaign run and
     explorer schedule builds a fresh engine. *)
  if code = Array.length t.kinds then begin
    let kinds = Array.make (if code = 0 then 8 else 2 * code) kind in
    Array.blit t.kinds 0 kinds 0 code;
    t.kinds <- kinds
  end;
  t.kinds.(code) <- kind;
  t.kind_count <- code + 1;
  kind

let post t kind ~at arg =
  if Ticks.compare at t.now < 0 then invalid_arg "Engine.post: event in the past";
  if kind.owner != t then invalid_arg "Engine.post: kind of another engine";
  if arg < 0 || arg > max_arg then
    invalid_arg "Engine.post: argument out of range";
  Heap.push t.queue ~time:at ~seq:t.next_seq
    ((arg lsl kind_bits) lor kind.code);
  t.next_seq <- t.next_seq + 1

let post_after t kind ~delay arg = post t kind ~at:(Ticks.add t.now delay) arg

let run_in_span label f arg =
  Prof.enter label;
  (try f arg
   with e ->
     Prof.exit ();
     raise e);
  Prof.exit ()

let step t =
  if Heap.is_empty t.queue then false
  else begin
    t.now <- Heap.top_time t.queue;
    let code = Heap.pop_top t.queue in
    let kind = t.kinds.(code land kind_mask) in
    let arg = code lsr kind_bits in
    if !Prof.on then run_in_span kind.label kind.handler arg
    else kind.handler arg;
    true
  end

let run ?until t =
  match until with
  | None ->
      while step t do
        ()
      done
  | Some limit ->
      while
        (not (Heap.is_empty t.queue)) && Ticks.(Heap.top_time t.queue <= limit)
      do
        ignore (step t)
      done;
      if Ticks.(t.now < limit) then t.now <- limit
