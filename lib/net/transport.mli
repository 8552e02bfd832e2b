(** Multicast transport entity (Section 5).

    Implements the abstract service [t.data.Rq (m, h, v, d)]: the data [d] is
    transferred from the source to all destinations [m], and retransmission is
    used to ensure that at least [h] of them (1 <= h <= |m|) receive it.  The
    voting function [v] is not used by the urcgc protocol, so the semantics
    here are the paper's n-unicast semantics.  The primitive never fails: once
    the retry budget is exhausted the Confirm fires with however many
    destinations acknowledged.

    With [h = 1] the urcgc entity is mounted directly on the datagram
    subnetwork and this module is bypassed; it exists to reproduce the [h > 1]
    configurations discussed in Section 5 (retransmission moved into the
    transport, reduced use of recovery from history). *)

type 'msg t

val create :
  ?latency:Netsim.latency ->
  ?retry_interval:Sim.Ticks.t ->
  ?max_retries:int ->
  ?mtu:int ->
  Sim.Engine.t ->
  fault:Fault.t ->
  rng:Sim.Rng.t ->
  unit ->
  'msg t
(** [retry_interval] defaults to one rtd; [max_retries] to 4.

    [mtu] enables fragmentation and assembly (Section 5: the transport is
    "useful when there is the need of fragmenting and assembling the urcgc
    data units to fit the network packet size"): a request larger than the
    MTU is carried by ceil(size/mtu) fragments, reassembled at each
    destination, delivered once complete, and acknowledged as a whole;
    retransmissions resend only the fragments a destination has not
    acknowledged.  [None] (the default) sends every request as a single
    datagram regardless of size. *)

val attach : 'msg t -> Node_id.t -> (src:Node_id.t -> 'msg -> unit) -> unit
(** Registers the [t.data.Ind] handler of a node.  Duplicate transmissions of
    the same request are suppressed.  A request's reassembly state lives
    until no copy of it can still arrive (its last transmission plus the
    network's latency bound), so the transport holds state only for recent
    requests however many it has carried.  Every node that issues requests
    must also be attached: acknowledgements are addressed to the source
    node and are discarded if it has no handler. *)

val request :
  'msg t ->
  src:Node_id.t ->
  dsts:Node_id.t list ->
  h:int ->
  kind:Traffic.kind ->
  size:int ->
  on_confirm:(acked:int -> unit) ->
  'msg ->
  unit
(** [t.data.Rq].  [on_confirm] fires exactly once, when [h] acknowledgements
    have arrived or the retry budget is exhausted.  Raises [Invalid_argument]
    if [h < 1] or [h > List.length dsts] or [dsts = []]. *)

val traffic : 'msg t -> Traffic.t
(** Accounting of everything this transport offered to the subnetwork,
    including retransmissions and acks. *)

val set_trace : 'msg t -> Sim.Trace.t -> unit
(** Forwarded to the inner {!Netsim.set_trace}: frame drops show up as
    typed {!Sim.Trace.Drop} events. *)

val engine : 'msg t -> Sim.Engine.t

val fault : 'msg t -> Fault.t

val retransmissions : 'msg t -> int
(** Total packet copies sent beyond the first attempt (diagnostics). *)

val dropped_count : 'msg t -> int
(** Frames lost in the inner subnetwork (diagnostics). *)

val fragments_sent : 'msg t -> int
(** Fragment packets sent (0 when no MTU is configured or nothing exceeded
    it). *)
