(** A group of urcgc processes bound to the simulator and the network.

    The cluster sits on a {!Net.Group}, which owns the member table and the
    global round clock (two rounds per subrun, one subrun per rtd).  It
    feeds each member its round hooks and incoming PDUs, executes the
    resulting actions, and records everything an experiment needs:
    processing events with timestamps, confirmations, discards and
    departures. *)

type 'a delivery = {
  node : Net.Node_id.t;  (** where the message was processed *)
  msg : 'a Causal.Causal_msg.t;
  at : Sim.Ticks.t;
}

type 'a generation = {
  mid : Causal.Mid.t;
  payload : 'a;
  sent_at : Sim.Ticks.t;
}

type departure = {
  who : Net.Node_id.t;
  why : Member.reason;
  when_ : Sim.Ticks.t;
}

type 'a t

val create :
  ?tracer:Sim.Trace.t ->
  config:Config.t ->
  net:'a Wire.body Net.Netsim.t ->
  unit ->
  'a t
(** Creates the [config.n] members mounted directly on the datagram
    subnetwork — the paper's evaluated [h = 1] configuration.  Raises
    [Invalid_argument] if the network already has handlers on the group's
    ids. *)

val create_with_medium :
  ?tracer:Sim.Trace.t -> config:Config.t -> medium:'a Medium.t -> unit -> 'a t
(** Same, over an arbitrary {!Medium} — in particular the Section 5
    transport entity with [h > 1] ({!Medium.of_transport}). *)

val medium : 'a t -> 'a Medium.t

val start : 'a t -> unit
(** Starts the round clock at the engine's current time.  Rounds are
    scheduled lazily, so the simulation ends when [Engine.run ~until] says
    so. *)

val config : 'a t -> Config.t

val group : 'a t -> 'a Member.t Net.Group.t
(** The member table, round clock and run loop the cluster is built on. *)

val member : 'a t -> Net.Node_id.t -> 'a Member.t
val members : 'a t -> 'a Member.t list

val submit :
  ?deps:Causal.Mid.t list -> ?size:int -> 'a t -> Net.Node_id.t -> 'a -> unit
(** [urcgc.data.Rq] at the given process. *)

val round : 'a t -> int
(** Rounds completed so far. *)

val subrun : 'a t -> int

val on_round : 'a t -> (round:int -> unit) -> unit
(** Registers a callback fired after every completed round — used by
    experiments to sample history lengths etc.  Callbacks run in
    registration order. *)

val on_delivery : 'a t -> ('a delivery -> unit) -> unit
(** Fired at every processing event, as it happens. *)

val on_confirm : 'a t -> (Net.Node_id.t -> Causal.Mid.t -> unit) -> unit
(** Fired when a process's own message is locally processed
    ([urcgc.data.Conf]). *)

val add_broadcast_targets : 'a t -> Net.Node_id.t list -> unit
(** Extends every member broadcast (data and decisions) to additional
    receivers outside the group — the diffusion-group configuration of
    Section 3, where messages are multicast "to the full set of server and
    client processes". *)

val deliveries : 'a t -> 'a delivery list
(** Every processing event, in simulation order. *)

val generations : 'a t -> 'a generation list
(** Every message generation (mid assignment + broadcast), in order. *)

val departures : 'a t -> departure list

val discards : 'a t -> (Net.Node_id.t * Causal.Mid.t list * Sim.Ticks.t) list

val active_members : 'a t -> Net.Node_id.t list
(** Members that have not crashed (per fault injection) and not left. *)

val quiescent : 'a t -> bool
(** All active members have empty SAP backlogs and waiting lists and agree on
    a common [last_processed] vector — nothing further will be processed if
    no new messages are submitted. *)
