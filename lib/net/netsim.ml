type 'msg packet = {
  src : Node_id.t;
  dst : Node_id.t;
  kind : Traffic.kind;
  size : int;
  payload : 'msg;
}

type latency = { base : Sim.Ticks.t; jitter : int }

let default_latency = { base = Sim.Ticks.of_int 40; jitter = 10 }

(* Packet handlers see the full datagram; payload handlers are the
   allocation-free fast path for receivers that only read the payload —
   delivery then never materializes a packet record for them. *)
type 'msg handler =
  | No_handler
  | Packet_handler of ('msg packet -> unit)
  | Payload_handler of ('msg -> unit)

(* One jitter bucket in flight: the surviving copies of one send that drew
   the same delay, delivered by one typed engine event whose argument is
   the bucket's slot.  Bucket records are recycled, so after warm-up a
   send allocates nothing. *)
type 'msg bucket = {
  mutable sender : Node_id.t;
  mutable traffic_kind : Traffic.kind;
  mutable bytes : int;
  mutable body : 'msg;
  mutable dsts : Node_id.t array;  (* destinations in [dsts.(0 .. count-1)] *)
  mutable count : int;
}

(* The payload of a free bucket, so that a delivered bucket keeps nothing
   reachable.  The same discipline as [Sim.Heap]'s dummy: it is only ever
   stored into free buckets and never read at type ['msg]. *)
let vacant : 'a. 'a = Obj.magic ()

type 'msg t = {
  engine : Sim.Engine.t;
  fault : Fault.t;
  rng : Sim.Rng.t;
  latency : latency;
  traffic : Traffic.t;
  (* Dense, indexed by [Node_id.to_int]: the per-delivery lookup is an
     array read, not a hash probe allocating an option. *)
  mutable handlers : 'msg handler array;
  mutable delivered : int;
  mutable dropped : int;
  mutable filter : ('msg packet -> bool) option;
  mutable trace : Sim.Trace.t;
  deliver_kind : Sim.Engine.kind;
  mutable buckets : 'msg bucket array;
  (* Free bucket slots, a stack in [free.(0 .. free_top - 1)]. *)
  mutable free : int array;
  mutable free_top : int;
  (* Scratch of one send call (no user code that could send runs while it
     is in use), owned by this network — [Pool]-parallel campaigns give
     every run its own network, so no domain shares it: each destination's
     jitter offset or -1 if dropped, the open bucket of each offset or -1,
     and the destination of a unicast. *)
  mutable offsets : int array;
  slot_of_offset : int array;
  unicast : Node_id.t array;
}

(* Offsets are grouped through [slot_of_offset]; a wider jitter range would
   cost more to bucket than to fan out, so it gets one bucket per copy. *)
let max_grouped_jitter = 64

let handler_slot t node =
  let i = Node_id.to_int node in
  if i < Array.length t.handlers then t.handlers.(i) else No_handler

let traffic_class_of_kind = function
  | Traffic.Data -> Sim.Trace.Traffic_class.Data
  | Traffic.Control -> Sim.Trace.Traffic_class.Control
  | Traffic.Recovery -> Sim.Trace.Traffic_class.Recovery
  | Traffic.Ack -> Sim.Trace.Traffic_class.Ack

let drop t ~src ~dst ~kind stage =
  t.dropped <- t.dropped + 1;
  if Sim.Trace.enabled t.trace then
    Sim.Trace.emit t.trace ~time:(Sim.Engine.now t.engine)
      (Sim.Trace.Drop
         {
           src = Node_id.to_int src;
           dst = Node_id.to_int dst;
           kind = traffic_class_of_kind kind;
           stage;
         })

(* Deliver one bucket in destination order, drawing each receive omission
   here, then free it.  Receivers may send; they take other buckets. *)
let deliver t slot =
  let b = t.buckets.(slot) in
  let now = Sim.Engine.now t.engine in
  let src = b.sender and kind = b.traffic_kind and size = b.bytes in
  let payload = b.body and dsts = b.dsts in
  for i = 0 to b.count - 1 do
    let dst = dsts.(i) in
    if Fault.drop_on_recv t.fault ~now dst then
      drop t ~src ~dst ~kind Sim.Trace.On_recv
    else
      match handler_slot t dst with
      | No_handler -> t.dropped <- t.dropped + 1
      | Payload_handler handler ->
          t.delivered <- t.delivered + 1;
          handler payload
      | Packet_handler handler ->
          t.delivered <- t.delivered + 1;
          handler { src; dst; kind; size; payload }
  done;
  b.body <- vacant;
  b.count <- 0;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

let create ?(latency = default_latency) engine ~fault ~rng () =
  (* The network does not exist yet when its delivery kind is registered. *)
  let deliver_to = ref ignore in
  let deliver_kind =
    Sim.Engine.register engine ~label:"net.deliver" (fun slot ->
        !deliver_to slot)
  in
  let t =
    {
      engine;
      fault;
      rng;
      latency;
      traffic = Traffic.create ();
      handlers = [||];
      delivered = 0;
      dropped = 0;
      filter = None;
      trace = Sim.Trace.null;
      deliver_kind;
      buckets = [||];
      free = [||];
      free_top = 0;
      offsets = [||];
      slot_of_offset =
        Array.make (max 1 (min latency.jitter max_grouped_jitter)) (-1);
      unicast = [| Node_id.of_int 0 |];
    }
  in
  (deliver_to := fun slot -> deliver t slot);
  t

let engine t = t.engine
let fault t = t.fault
let traffic t = t.traffic

let set_handler t node handler =
  let i = Node_id.to_int node in
  if i >= Array.length t.handlers then begin
    let grown = Array.make (max 16 (2 * (i + 1))) No_handler in
    Array.blit t.handlers 0 grown 0 (Array.length t.handlers);
    t.handlers <- grown
  end;
  (match t.handlers.(i) with
  | No_handler -> ()
  | Packet_handler _ | Payload_handler _ ->
      invalid_arg "Netsim.attach: node already attached");
  t.handlers.(i) <- handler

let attach t node handler = set_handler t node (Packet_handler handler)
let attach_payload t node handler = set_handler t node (Payload_handler handler)

(* A free bucket holding [src]/[kind]/[size]/[payload] and no destination
   yet.  The table starts empty and doubles from 8: every campaign run and
   explorer schedule builds a fresh network. *)
let free_bucket _ =
  {
    sender = Node_id.of_int 0;
    traffic_kind = Traffic.Data;
    bytes = 0;
    body = vacant;
    dsts = [||];
    count = 0;
  }

let open_bucket t ~src ~kind ~size payload =
  if t.free_top = 0 then begin
    let len = Array.length t.buckets in
    let capacity = if len = 0 then 8 else 2 * len in
    t.buckets <- Array.append t.buckets (Array.init (capacity - len) free_bucket);
    (* Every bucket below [len] is in flight, so only the new ones are free;
       highest first, so the lowest is handed out next. *)
    t.free <- Array.make capacity 0;
    for slot = capacity - 1 downto len do
      t.free.(t.free_top) <- slot;
      t.free_top <- t.free_top + 1
    done
  end;
  t.free_top <- t.free_top - 1;
  let slot = t.free.(t.free_top) in
  let b = t.buckets.(slot) in
  b.sender <- src;
  b.traffic_kind <- kind;
  b.bytes <- size;
  b.body <- payload;
  slot

let add_destination t slot dst =
  let b = t.buckets.(slot) in
  if b.count = Array.length b.dsts then begin
    let grown = Array.make (max 2 (2 * b.count)) dst in
    Array.blit b.dsts 0 grown 0 b.count;
    b.dsts <- grown
  end;
  b.dsts.(b.count) <- dst;
  b.count <- b.count + 1

let post t ~offset slot =
  Sim.Engine.post_after t.engine t.deliver_kind
    ~delay:(Sim.Ticks.add t.latency.base (Sim.Ticks.of_int offset))
    slot

let filtered_out t ~src ~dst ~kind ~size payload =
  match t.filter with
  | None -> false
  | Some keep -> not (keep { src; dst; kind; size; payload })

(* n independent unicasts, with every draw made as if they were sent one
   by one: per destination, in order, the send fault, the link fault and
   (for a survivor) the jitter, with the scripted filter between the link
   fault and the jitter.  The survivors are then grouped into one bucket
   per distinct jitter offset, each posted as one typed event in ascending
   offset order.  Unicasts with consecutive engine seqs would pop sorted
   by (delay, destination index), which is exactly how the buckets fire:
   one event per delay, ascending, each delivering in destination order;
   receive omissions are drawn at delivery in that same global order. *)
let multicast_array t ~src ~dsts ~kind ~size payload =
  let len = Array.length dsts in
  if len > 0 then begin
    if !Sim.Prof.on then Sim.Prof.enter "net.send";
    let now = Sim.Engine.now t.engine in
    let jitter = t.latency.jitter in
    if Array.length t.offsets < len then
      t.offsets <- Array.make (max 16 (2 * len)) 0;
    let offsets = t.offsets in
    for i = 0 to len - 1 do
      let dst = dsts.(i) in
      Traffic.record t.traffic ~kind ~size;
      offsets.(i) <-
        (if Fault.drop_on_send t.fault ~now src then begin
           drop t ~src ~dst ~kind Sim.Trace.On_send;
           -1
         end
         else if Fault.drop_on_link t.fault then begin
           drop t ~src ~dst ~kind Sim.Trace.On_link;
           -1
         end
         else if filtered_out t ~src ~dst ~kind ~size payload then begin
           drop t ~src ~dst ~kind Sim.Trace.On_filter;
           -1
         end
         else if jitter <= 0 then 0
         else Sim.Rng.int t.rng jitter)
    done;
    if jitter > max_grouped_jitter then
      for i = 0 to len - 1 do
        let offset = offsets.(i) in
        if offset >= 0 then begin
          let slot = open_bucket t ~src ~kind ~size payload in
          add_destination t slot dsts.(i);
          post t ~offset slot
        end
      done
    else begin
      let slot_of_offset = t.slot_of_offset in
      for i = 0 to len - 1 do
        let offset = offsets.(i) in
        if offset >= 0 then begin
          if slot_of_offset.(offset) < 0 then
            slot_of_offset.(offset) <- open_bucket t ~src ~kind ~size payload;
          add_destination t slot_of_offset.(offset) dsts.(i)
        end
      done;
      for offset = 0 to max 0 (jitter - 1) do
        let slot = slot_of_offset.(offset) in
        if slot >= 0 then begin
          slot_of_offset.(offset) <- -1;
          post t ~offset slot
        end
      done
    end;
    if !Sim.Prof.on then Sim.Prof.exit ()
  end

let send t ~src ~dst ~kind ~size payload =
  t.unicast.(0) <- dst;
  multicast_array t ~src ~dsts:t.unicast ~kind ~size payload

let delivered_count t = t.delivered
let dropped_count t = t.dropped

let set_filter t filter = t.filter <- filter

let set_trace t trace = t.trace <- trace
