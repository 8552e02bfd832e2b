(** The GMT sublayer of Section 5: causal processing, history, orphan purge
    and recovery.  A {!t} is one process's GMT state, and this module is
    the only code that changes it: {!Member}, the GC sublayer (subruns,
    decisions, membership), drives one per group member, and a diffusion
    client ([Groups.Diffusion]) is one fed the servers' decisions.

    Effects go to the caller's closures (a member passes its sink's), in
    the order of the member's emission contract; a call allocates nothing
    beyond the structures' own updates. *)

type 'a t = private {
  delivery : Causal.Delivery.t;  (** the [last_processed] vector *)
  history : 'a Causal.History.t;  (** processed messages, purged at stable *)
  waiting : 'a Causal.Waiting_list.t;  (** received, dependencies missing *)
}
(** Read the structures freely; change them only through this module
    ([scripts/lint.sh] holds the boundary). *)

val create : n:int -> 'a t

val receive :
  'a t ->
  processed:('a Causal.Causal_msg.t -> unit) ->
  queued:(Causal.Mid.t -> int -> unit) ->
  'a Causal.Causal_msg.t ->
  unit
(** A received data message: ignored when already processed, {!process}ed
    when processable, otherwise entered into the waiting list and reported
    to [queued] with the list's length after the add. *)

val process :
  'a t ->
  processed:('a Causal.Causal_msg.t -> unit) ->
  'a Causal.Causal_msg.t ->
  unit
(** Processes a processable message (marks it, stores it in the history and
    reports it), then drains the waiting list of every message that this
    unblocks, each reported in processing order (span [member.drain]). *)

val purge : 'a t -> discarded:(Causal.Mid.t list -> unit) -> Decision.t -> unit
(** Applies the purges of a full-group decision (other decisions are
    ignored): purges the history of every origin up to [stable], then
    destroys the orphaned waiting messages (span [member.discard]).  An
    origin's sequence is orphaned when the origin is declared crashed and
    its oldest waiting message lies more than one past [max_processed]:
    every holder of the messages in between crashed.  The discarded mids go
    to [discarded] once, origins ascending, when there are any. *)

val gaps : 'a t -> self:Net.Node_id.t -> Decision.t -> int
(** Recovery gaps against the decision: origins whose [max_processed] is
    past what this process processed and whose most updated process is not
    [self]. *)

val recover :
  'a t ->
  self:Net.Node_id.t ->
  send:(Net.Node_id.t -> 'a Wire.body -> unit) ->
  Decision.t ->
  unit
(** One [Recover_req] per {!gaps} origin, origins ascending, to that
    origin's most updated process, asking from the first missing sequence
    number up to [max_processed]. *)

val serve :
  'a Causal.History.t ->
  self:Net.Node_id.t ->
  send:(Net.Node_id.t -> 'a Wire.body -> unit) ->
  Wire.recover_request ->
  unit
(** Answers a recover request from a history: the requested range, capped
    at 64 messages so one reply stays within a datagram budget, as one
    [Recover_reply] to the requester; nothing when none is held. *)
