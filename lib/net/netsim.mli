(** Datagram subnetwork simulator.

    Delivery is best-effort: packets experience a one-way latency (strictly
    less than half an rtd, so a message sent at a round start is received
    within the same round) and may be dropped by link loss or by the
    send/receive omissions of the faulty endpoints.  A multicast is n
    unicasts, each of which can fail independently — this models the paper's
    assumption that [send] is not indivisible.

    The copies of one send that draw the same delay travel as one bucket,
    delivered by one typed {!Sim.Engine} event.  Buckets are recycled, so
    after warm-up neither a send nor a delivery to a payload handler
    allocates. *)

type 'msg packet = {
  src : Node_id.t;
  dst : Node_id.t;
  kind : Traffic.kind;
  size : int;  (** encoded size in bytes *)
  payload : 'msg;
}

type latency = {
  base : Sim.Ticks.t;  (** minimum one-way latency *)
  jitter : int;        (** extra latency, uniform in [0, jitter) ticks *)
}

val default_latency : latency
(** 40 ticks base + up to 9 ticks jitter: one-way < 1/2 rtd (50 ticks). *)

type 'msg t

val create :
  ?latency:latency -> Sim.Engine.t -> fault:Fault.t -> rng:Sim.Rng.t -> unit -> 'msg t

val engine : 'msg t -> Sim.Engine.t
val fault : 'msg t -> Fault.t
val traffic : 'msg t -> Traffic.t

val attach : 'msg t -> Node_id.t -> ('msg packet -> unit) -> unit
(** Registers the receive handler of a node.  Raises [Invalid_argument] if
    the node already has a handler. *)

val attach_payload : 'msg t -> Node_id.t -> ('msg -> unit) -> unit
(** Like {!attach} for receivers that only read the payload: delivery then
    builds no packet record — the allocation-free path the protocol stack
    mounts on.  A packet handler gets a record built at delivery. *)

val send :
  'msg t -> src:Node_id.t -> dst:Node_id.t -> kind:Traffic.kind -> size:int ->
  'msg -> unit
(** Queues one datagram.  Accounted in {!traffic} even if later dropped (the
    paper's network load counts offered messages).  Self-sends are delivered
    (with latency) like any other. *)

val multicast_array :
  'msg t -> src:Node_id.t -> dsts:Node_id.t array -> kind:Traffic.kind ->
  size:int -> 'msg -> unit
(** [n] independent unicasts, accounted as [Array.length dsts] packets:
    the fault draws (send, link, then the jitter of each survivor) are made
    per destination in array order, exactly as [n] calls to {!send} would
    make them, and the copies are delivered in the same order those calls
    would give — by delay, then by position in [dsts].  One engine event
    per distinct delay delivers its copies.  [dsts] is not retained. *)

val delivered_count : 'msg t -> int
(** Packets actually handed to a receive handler (diagnostics). *)

val dropped_count : 'msg t -> int

val set_trace : 'msg t -> Sim.Trace.t -> unit
(** Emit a typed {!Sim.Trace.Drop} event for every packet lost to fault
    injection, labelled with the pipeline stage (send / link / recv /
    filter).  Defaults to {!Sim.Trace.null} (no events). *)

val set_filter : 'msg t -> ('msg packet -> bool) option -> unit
(** Scripted, deterministic fault injection: when set, every packet copy is
    shown to the predicate at send time and dropped when it returns [false]
    (still accounted as offered traffic).  [None] removes the filter.  Used
    by tests to lose one specific message at specific destinations —
    something probabilistic omission rates cannot stage. *)
