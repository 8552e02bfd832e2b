(** A CBCAST group bound to the simulator.

    CBCAST assumes a reliable transport underneath (the paper contrasts this
    with urcgc's independence from the transport), so the cluster mounts
    every PDU on the {!Net.Transport} entity with [h = ] "all destinations":
    copies are retransmitted until acknowledged.  Acknowledgement traffic is
    accounted separately from the protocol's own control messages. *)

type 'a delivery = {
  node : Net.Node_id.t;
  data : 'a Cb_wire.data;
  at : Sim.Ticks.t;
}

type view_change = {
  at_node : Net.Node_id.t;
  view_id : int;
  members : bool array;
  at : Sim.Ticks.t;
}

type 'a t

val create :
  ?tracer:Sim.Trace.t ->
  n:int ->
  k:int ->
  engine:Sim.Engine.t ->
  fault:Net.Fault.t ->
  rng:Sim.Rng.t ->
  unit ->
  'a t

val start : 'a t -> unit

val group : 'a t -> 'a Member.t Net.Group.t
(** The member table, round clock and run loop the cluster is built on. *)

val submit : ?size:int -> 'a t -> Net.Node_id.t -> 'a -> unit

val member : 'a t -> Net.Node_id.t -> 'a Member.t
val members : 'a t -> 'a Member.t list

val on_round : 'a t -> (round:int -> unit) -> unit

val deliveries : 'a t -> 'a delivery list
val generations : 'a t -> (Net.Node_id.t * int * Sim.Ticks.t) list
(** (sender, seq, time) of every multicast data message. *)

val view_changes : 'a t -> view_change list
val flush_starts : 'a t -> (Net.Node_id.t * int * Sim.Ticks.t) list

val traffic : 'a t -> Net.Traffic.t

val subrun : 'a t -> int

val active_members : 'a t -> Net.Node_id.t list

val quiescent : 'a t -> bool
(** No SAP backlog or buffered messages at any active member, no flush in
    progress, and all active members agree on the delivered vector. *)
