(** Per-process urcgc protocol entity: the GC sublayer of Section 5.

    A member runs the subruns, the requests and decisions, coordinator
    rotation, flow control and the departures, and drives one {!Gmt} (the
    GMT sublayer: causal processing, history, orphan purge and recovery)
    through its sink's closures.

    A member is a deterministic state machine: the two round hooks
    ({!begin_subrun}, {!mid_subrun}) and the PDU handler ({!handle}) each
    emit the {!action}s the process takes into a {!sink}, and the embedding
    ({!Cluster}) turns those into network sends and service indications.
    {!collect} reads the emissions of one call as a list, which keeps the
    whole protocol logic testable without a simulator.

    Timeline of subrun [s] (one rtd):
    - round [2s] ({!begin_subrun}): send the request (state vectors + last
      received decision) to the coordinator of [s]; send recovery requests
      for known gaps; possibly broadcast one new data message, emitted as
      its [Broadcast], then the [Processed] cascade it starts, then its
      [Confirmed].  The subrun in which recovery is exhausted emits only
      [Left Recovery_exhausted].
    - round [2s+1] ({!mid_subrun}): the coordinator computes and broadcasts
      its decision, ahead of any [Discarded] or [Left] that adopting it
      produces (a coordinator that departs on adopting its own decision
      broadcasts nothing); possibly broadcast one new data message. *)

type reason =
  | Declared_crashed  (** saw a decision with [alive.(self) = false]: suicide *)
  | Decision_silence
      (** no decision carrying evidence of another live process was received
          for [silence_limit] subruns.  A decision is evidence only when it
          was issued by another coordinator or aggregated a request from at
          least one other member: a process's own solo decisions never reset
          the counter (they would keep an expelled-but-silenced process alive
          forever). *)
  | Recovery_exhausted  (** R unsuccessful attempts to recover from history *)
  | Partitioned
      (** the adopted view degenerated to [{self}] while [Config.n > 1]:
          primary-partition discipline makes the process depart rather than
          coordinate a solo view nobody else holds *)

val reason_to_string : reason -> string

type 'a action =
  | Broadcast of 'a Wire.body
      (** send to every other process alive in the local view *)
  | Send of Net.Node_id.t * 'a Wire.body
  | Processed of 'a Causal.Causal_msg.t
      (** the message was processed here — [urcgc.data.Ind] *)
  | Confirmed of Causal.Mid.t
      (** own message locally processed — [urcgc.data.Conf] *)
  | Discarded of Causal.Mid.t list
      (** orphaned waiting messages destroyed by group agreement *)
  | Queued of Causal.Mid.t * int
      (** the message entered the waiting list (dependencies missing); the
          int is the waiting-list length after the add *)
  | Left of reason  (** the process left the group and stops participating *)

type 'a sink = {
  emit_broadcast : 'a Wire.body -> unit;
  emit_send : Net.Node_id.t -> 'a Wire.body -> unit;
  emit_processed : 'a Causal.Causal_msg.t -> unit;
  emit_confirmed : Causal.Mid.t -> unit;
  emit_discarded : Causal.Mid.t list -> unit;
  emit_queued : Causal.Mid.t -> int -> unit;
  emit_left : reason -> unit;
}
(** Streaming consumer of a member's actions: one callback per {!action}
    constructor, invoked as the actions happen, in the order the module
    documentation gives.  The embedding ({!Cluster}) allocates one sink per
    member for the whole run.  Sink callbacks must not call back into the
    emitting member. *)

type 'a t

val create : ?decision:Decision.t -> Config.t -> Net.Node_id.t -> 'a t
(** [?decision] seeds the member's adopted decision (defaults to a fresh
    [Decision.initial]).  Decisions are immutable after construction, so a
    cluster passes one shared initial decision to all its members rather
    than allocating n identical copies. *)

val id : 'a t -> Net.Node_id.t
val config : 'a t -> Config.t

val active : 'a t -> bool
(** False once the process has left the group. *)

val left_reason : 'a t -> reason option

val view : 'a t -> Causal.Group_view.t
val latest_decision : 'a t -> Decision.t
val history_length : 'a t -> int
val waiting_length : 'a t -> int
val processed_count : 'a t -> int
val last_processed : 'a t -> Net.Node_id.t -> int
val flow_blocked : 'a t -> bool
val sap_backlog : 'a t -> int

val submit : ?deps:Causal.Mid.t list -> ?size:int -> 'a t -> 'a -> unit
(** [urcgc.data.Rq]: queues a payload.  One queued message is labelled and
    broadcast per round (the paper's maximum service rate), subject to flow
    control.  [deps] are the explicit causal dependencies; they default to
    the sender's current frontier (the last processed message of every other
    origin), the densest labelling allowed by Definition 3.1's intermediate
    interpretation.  [size] defaults to {!Config.default_payload_size}. *)

val begin_subrun : 'a t -> 'a sink -> subrun:int -> unit

val mid_subrun : 'a t -> 'a sink -> subrun:int -> unit

val handle : 'a t -> 'a sink -> 'a Wire.body -> unit

val collect : ('a sink -> unit) -> 'a action list
(** [collect f] runs [f] on a sink that records every emission, and returns
    the actions in emission order:
    [collect (begin_subrun m ~subrun)] or
    [collect (fun sink -> handle m sink body)]. *)
