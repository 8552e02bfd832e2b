(** A Psync conversation bound to the simulator.

    Psync mounts directly on the datagram subnetwork and repairs loss itself
    with retransmission requests, so the cluster uses {!Net.Netsim} without a
    transport entity. *)

type 'a delivery = {
  node : Net.Node_id.t;
  msg : 'a Context_graph.node;
  at : Sim.Ticks.t;
}

type 'a t

val create :
  ?tracer:Sim.Trace.t ->
  ?pending_bound:int ->
  n:int ->
  k:int ->
  net:'a Wire.body Net.Netsim.t ->
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
val generations : 'a t -> (Context_graph.mid * Sim.Ticks.t) list
val masked : 'a t -> (Net.Node_id.t * Net.Node_id.t * Sim.Ticks.t) list
(** (who observed, who was masked, when). *)

val dropped : 'a t -> int
(** Pending messages truncated by flow control, across all members. *)

val subrun : 'a t -> int

val active_members : 'a t -> Net.Node_id.t list

val quiescent : 'a t -> bool
