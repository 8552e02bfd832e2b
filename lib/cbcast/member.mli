(** Per-process CBCAST entity: vector-clock causal multicast with piggybacked
    stability (a circulating token) and a blocking view-change/flush protocol
    on failures — the comparison baseline of Sections 4 and 6.

    The contrast with urcgc that the paper draws:
    - under reliable conditions CBCAST is cheaper (no per-subrun agreement,
      just the token: [n+1] control messages of size [4(n+1)]);
    - on a crash it must run a specialized flush protocol during which "no
      message generation and processing is allowed", its messages grow with
      the unstable backlog, and every coordinator failure restarts it. *)

type reason = Excluded  (** removed from the view by a flush *)

type 'a action =
  | Multicast of 'a Cb_wire.body  (** to the other members of the view *)
  | Unicast of Net.Node_id.t * 'a Cb_wire.body
  | Delivered of 'a Cb_wire.data
  | View_installed of { view_id : int; members : bool array }
  | Flush_begun of int  (** view id being negotiated; processing blocks *)
  | Halted of reason

type 'a t

val create : n:int -> k:int -> Net.Node_id.t -> 'a t

val id : 'a t -> Net.Node_id.t
val active : 'a t -> bool
val view_id : 'a t -> int
val members : 'a t -> bool array
val flushing : 'a t -> bool
val buffered : 'a t -> int
(** Undeliverable messages currently buffered. *)

val unstable : 'a t -> int
(** Messages retained in the history (delivered but not yet stable) — the
    CBCAST analogue of the urcgc history length. *)

val delivered_vt : 'a t -> Vclock.t

val submit : ?size:int -> 'a t -> 'a -> unit
(** Queues a payload; one is multicast per round while no flush is active. *)

val sap_backlog : 'a t -> int

val on_round : 'a t -> subrun:int -> 'a action list
(** Fired every round (twice per subrun); [subrun] is the current subrun
    index used by the failure detector and flush timeouts. *)

val handle : 'a t -> subrun:int -> from:Net.Node_id.t -> 'a Cb_wire.body -> 'a action list
