(** Failure injection under the general omission model (Section 3).

    A process fails either by crashing (fail stop) or by omitting to send or
    receive a subset of its messages; link loss at the subnetwork level is
    modelled separately but has the same observable effect as an omission. *)

type spec = {
  crashes : (Node_id.t * Sim.Ticks.t) list;
      (** Fail-stop schedule: node [p] stops participating at the given time. *)
  send_omission : float;  (** Per-packet send-side drop probability. *)
  recv_omission : float;  (** Per-packet receive-side drop probability. *)
  link_loss : float;      (** Per-packet subnetwork loss probability. *)
  silenced_per_subrun : int;
      (** Adversarial send-omission bursts: every subrun, this many randomly
          chosen processes lose {e all} their outgoing packets for the whole
          subrun.  This is the failure shape behind the paper's resilience
          degree [t = (n-1)/2]: up to [t] such failures per subrun still let
          every coordinator receive the previous decision. *)
  population : int;
      (** Number of processes the silenced set is drawn from (the group
          size); only meaningful when [silenced_per_subrun > 0]. *)
}

val reliable : spec
(** No failures at all. *)

val omission_every : int -> spec
(** [omission_every k] drops on average one packet every [k], split evenly
    between send and receive omissions (the paper's 1/500 and 1/100 runs).
    Raises [Invalid_argument] if [k <= 0]. *)

val with_crashes : (Node_id.t * Sim.Ticks.t) list -> spec -> spec

val with_subrun_silence : count:int -> population:int -> spec -> spec
(** Adds the per-subrun silenced-set behaviour.  Raises [Invalid_argument]
    if [count < 0] or [count >= population]. *)

val json_of_spec : spec -> string
(** Canonical machine-readable form of a fault spec, used by the campaign
    reports.  Crash times are given in ticks; field order is fixed, so equal
    specs always serialize to the same bytes. *)

type t

val create : spec -> rng:Sim.Rng.t -> t

val spec : t -> spec

val crashed : t -> now:Sim.Ticks.t -> Node_id.t -> bool
(** True once the node's scheduled crash time has been reached. *)

val crash_now : t -> now:Sim.Ticks.t -> Node_id.t -> unit
(** Dynamically crash a node (used for suicide and for adaptive scenarios). *)

val drop_on_send : t -> now:Sim.Ticks.t -> Node_id.t -> bool
(** Decides whether this outgoing packet copy is lost to a send omission (or
    because the sender crashed).  Consumes randomness. *)

val drop_on_link : t -> bool

val drop_on_recv : t -> now:Sim.Ticks.t -> Node_id.t -> bool

val alive : t -> now:Sim.Ticks.t -> all:Node_id.t list -> Node_id.t list
(** Nodes of [all] not crashed at [now]. *)
