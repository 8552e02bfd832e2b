(** A simulated process group: the plumbing every protocol cluster shares.

    A group owns the member table (member [i] is process [p_i]), the global
    round clock (two rounds per subrun, one subrun per rtd), crash gating
    against the fault injector, the quiescence scaffold and the loop that
    runs a workload to quiescence.  The urcgc, urgc, CBCAST and Psync
    clusters keep only what differs between protocols: how a member's
    actions are executed, what is recorded and narrated, and when a member
    counts as idle or in agreement. *)

type 'm t

val create :
  engine:Sim.Engine.t -> fault:Fault.t -> active:('m -> bool) -> 'm array -> 'm t
(** [active] tells whether the protocol still counts a member in the group
    (it has not left, halted or been masked out).  A crashed member that has
    not noticed stays active: crashes are the fault injector's to know. *)

val size : 'm t -> int
val now : 'm t -> Sim.Ticks.t

val member : 'm t -> Node_id.t -> 'm
val members : 'm t -> 'm list
(** In id order. *)

val crashed : 'm t -> Node_id.t -> bool
(** The node's scheduled (or dynamic) crash time has been reached.  Crashed
    members get no round hook, and clusters drop their incoming PDUs. *)

val active : 'm t -> Node_id.t -> bool
(** The [active] predicate of the member at this node, crash or not. *)

val iter_live : 'm t -> ('m -> unit) -> unit
(** Applies the function to every member not crashed now, in id order. *)

val start : 'm t -> (int -> unit) -> unit
(** [start g body] starts the round clock at the engine's current time,
    under the ["cluster.round"] engine label.  Each tick runs [body round]
    (the protocol's round hooks), counts the round, runs the {!on_round}
    callbacks with the completed round in registration order, and
    schedules the next tick one round later.  Rounds are scheduled lazily,
    so the simulation ends when [Engine.run ~until] says so.  Raises
    [Invalid_argument] if the clock is already running. *)

val on_round : 'm t -> (round:int -> unit) -> unit

val round : 'm t -> int
(** Rounds completed so far. *)

val subrun : 'm t -> int

val active_members : 'm t -> Node_id.t list
(** Members that are active and not crashed, in id order. *)

val quiescent : 'm t -> idle:('m -> bool) -> agree:('m -> 'm -> bool) -> bool
(** Every active, uncrashed member is [idle] and [agree first member]
    holds, [first] being the lowest such member.  True on a group with no
    such member. *)

val run : 'm t -> max_rtd:float -> until:(unit -> bool) -> unit
(** Advances the engine one rtd at a time, never past [max_rtd], and stops
    after the first step at whose end [until ()] holds. *)
