(* Every queued event is one int code in an [int Heap.t]: the heap's three
   parallel arrays hold (time, seq, code) and a push or pop allocates
   nothing.  The low [kind_bits] of a code name the event's kind and the
   rest is its int argument.  Kind 0 is the closure event: its argument is
   a slot of [closures], which holds the cancellable record.  Every other
   kind was registered once with a handler and a profiling label, so a
   typed event costs no record and no closure per occurrence.

   Dead [closures] slots hold [vacant], so a fired or cancelled callback
   is unreachable through the engine once popped. *)

type event = {
  mutable cancelled : bool;
  label : string;
  callback : unit -> unit;
}

type handle = event

type t = {
  mutable now : Ticks.t;
  mutable next_seq : int;
  mutable stopped : bool;
  queue : int Heap.t;
  mutable closures : event array;
  (* Free [closures] slots, a stack in [free.(0 .. free_top - 1)]. *)
  mutable free : int array;
  mutable free_top : int;
  mutable kinds : kind array;  (* index 0 unused *)
  mutable kind_count : int;
}

and kind = { code : int; label : string; handler : int -> unit; owner : t }

let kind_bits = 10
let kind_mask = (1 lsl kind_bits) - 1
let max_arg = max_int lsr kind_bits

let vacant = { cancelled = true; label = ""; callback = ignore }

let create () =
  {
    now = Ticks.zero;
    next_seq = 0;
    stopped = false;
    queue = Heap.create ();
    closures = [||];
    free = [||];
    free_top = 0;
    kinds = [||];
    kind_count = 0;
  }

let now t = t.now

let pending t = Heap.length t.queue

let push t ~at code =
  Heap.push t.queue ~time:at ~seq:t.next_seq code;
  t.next_seq <- t.next_seq + 1

(* Tables start empty and double from 8: every campaign run and explorer
   schedule builds a fresh engine. *)
let grown_size len = if len = 0 then 8 else 2 * len

let closure_slot t =
  if t.free_top = 0 then begin
    let len = Array.length t.closures in
    let size = grown_size len in
    let closures = Array.make size vacant in
    Array.blit t.closures 0 closures 0 len;
    t.closures <- closures;
    (* Every slot below [len] is in flight, so the new ones are all free;
       push them highest first so the lowest is handed out next. *)
    if Array.length t.free < size then t.free <- Array.make size 0;
    for slot = size - 1 downto len do
      t.free.(t.free_top) <- slot;
      t.free_top <- t.free_top + 1
    done
  end;
  t.free_top <- t.free_top - 1;
  t.free.(t.free_top)

let schedule ?(label = "event") t ~at callback =
  if Ticks.compare at t.now < 0 then
    invalid_arg "Engine.schedule: event in the past";
  let event = { cancelled = false; label; callback } in
  let slot = closure_slot t in
  t.closures.(slot) <- event;
  push t ~at (slot lsl kind_bits);
  event

let schedule_after ?label t ~delay callback =
  schedule ?label t ~at:(Ticks.add t.now delay) callback

let cancel event = event.cancelled <- true

let register t ~label handler =
  let code = t.kind_count + 1 in
  if code > kind_mask then invalid_arg "Engine.register: too many kinds";
  let kind = { code; label; handler; owner = t } in
  if code >= Array.length t.kinds then begin
    let kinds = Array.make (grown_size (Array.length t.kinds)) kind in
    Array.blit t.kinds 0 kinds 0 (Array.length t.kinds);
    t.kinds <- kinds
  end;
  t.kinds.(code) <- kind;
  t.kind_count <- code;
  kind

let post t kind ~at arg =
  if Ticks.compare at t.now < 0 then invalid_arg "Engine.post: event in the past";
  if kind.owner != t then invalid_arg "Engine.post: kind of another engine";
  if arg < 0 || arg > max_arg then
    invalid_arg "Engine.post: argument out of range";
  push t ~at ((arg lsl kind_bits) lor kind.code)

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
    let time = Heap.top_time t.queue in
    let code = Heap.pop_top t.queue in
    t.now <- time;
    let arg = code lsr kind_bits in
    let code = code land kind_mask in
    if code = 0 then begin
      let event = t.closures.(arg) in
      t.closures.(arg) <- vacant;
      t.free.(t.free_top) <- arg;
      t.free_top <- t.free_top + 1;
      if not event.cancelled then
        if !Prof.on then run_in_span event.label event.callback ()
        else event.callback ()
    end
    else begin
      let kind = t.kinds.(code) in
      if !Prof.on then run_in_span kind.label kind.handler arg
      else kind.handler arg
    end;
    true
  end

let run ?until t =
  t.stopped <- false;
  let continue () =
    if t.stopped || Heap.is_empty t.queue then false
    else
      match until with
      | None -> true
      | Some limit -> Ticks.(Heap.top_time t.queue <= limit)
  in
  while continue () do
    ignore (step t)
  done;
  match until with
  | Some limit when (not t.stopped) && Ticks.(t.now < limit) -> t.now <- limit
  | Some _ | None -> ()

let stop t = t.stopped <- true
