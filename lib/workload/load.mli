(** Offered-load model.

    Processes generate messages at round boundaries; the offered load is the
    per-process probability of submitting a new message at each round —
    1.0 saturates the paper's maximum service rate of one message per round
    per process. *)

type deps_mode =
  | Frontier
      (** a message depends on the last processed message of every other
          origin — the densest labelling (temporal causality) *)
  | Own_chain
      (** no explicit dependencies: sequences are fully concurrent and only
          the per-origin chains order messages *)
  | Random_frontier of float
      (** each frontier entry is kept with the given probability — models
          applications that declare only the significant dependencies *)

type t = {
  rate : float;  (** per-process submission probability per round *)
  total_messages : int option;  (** global cap on generated messages *)
  payload_size : int;
  deps_mode : deps_mode;
  senders : Net.Node_id.t list option;  (** [None] = everybody *)
}

val make :
  ?total_messages:int ->
  ?payload_size:int ->
  ?deps_mode:deps_mode ->
  ?senders:Net.Node_id.t list ->
  rate:float ->
  unit ->
  t
(** Defaults: no cap, 64-byte payloads, [Frontier], all processes.
    Raises [Invalid_argument] if [rate] is outside [0, 1]. *)

(** {2 Injection} *)

type injector
(** The load model bound to a group: one Bernoulli draw per sender per
    round, counting the messages produced against the cap. *)

val injector :
  t ->
  rng:Sim.Rng.t ->
  'm Net.Group.t ->
  submit:(Net.Node_id.t -> int -> unit) ->
  injector
(** [submit node id] hands message number [id] (1, 2, ...) to the
    protocol at [node]. *)

val inject : injector -> round:int -> unit
(** One round of load, meant for the cluster's [on_round].  For each sender
    in turn: stop drawing once the cap is reached, draw
    [Sim.Rng.bool rng rate], skip the sender if the group no longer counts
    it active ({!Net.Group.active}), otherwise submit the next id.  A
    skipped sender has consumed its draw but no id, so it does not count
    toward the cap. *)

val cap_reached : injector -> bool

val drive :
  ?sample:(round:int -> unit) ->
  injector ->
  'm Net.Group.t ->
  start:(unit -> unit) ->
  quiescent:(unit -> bool) ->
  max_rtd:float ->
  unit
(** The run loop of every stack: hooks {!inject} to the round clock of
    [group] (the injector's group), then [sample], starts the clock with
    [start] (the cluster's own), and runs the group ({!Net.Group.run})
    until the cap is reached and [quiescent ()] holds, or for [max_rtd].
    The three parts run in the ["runner.inject"], ["runner.sample"] and
    ["runner.run"] profiling spans. *)
