(** A urgc (total-order) group bound to the simulator — the mirror of
    {!Urcgc.Cluster} for the companion algorithm. *)

type 'a delivery = {
  node : Net.Node_id.t;
  seq : int;  (** the agreed global sequence number *)
  data : 'a Total_wire.data;
  at : Sim.Ticks.t;
}

type 'a t

val create :
  ?tracer:Sim.Trace.t ->
  n:int ->
  k:int ->
  net:'a Total_wire.body Net.Netsim.t ->
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
val generations : 'a t -> (Causal.Mid.t * Sim.Ticks.t) list
val departures : 'a t -> (Net.Node_id.t * Member.reason * Sim.Ticks.t) list

val subrun : 'a t -> int

val active_members : 'a t -> Net.Node_id.t list

val quiescent : 'a t -> bool

val total_order_ok : 'a t -> bool
(** The URGC clause: every active process processed the same sequence of
    messages, in the same (global) order — checked on the event log. *)
