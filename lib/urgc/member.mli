(** Per-process entity of the total-order companion algorithm (urgc).

    Same round/subrun skeleton as {!Urcgc.Member}, but a message may only be
    processed once a coordinator decision has bound it to the next global
    sequence number — including the sender's own messages.  That extra
    sequencing round is the service-time price of total ordering that the
    paper's Section 2 contrasts with the causal service. *)

type reason = Declared_crashed | Decision_silence

val reason_to_string : reason -> string

type 'a action =
  | Broadcast of 'a Total_wire.body
  | Send of Net.Node_id.t * 'a Total_wire.body
  | Processed of int * 'a Total_wire.data
      (** (global sequence, message): processed here, in sequence order *)
  | Left of reason

type 'a t

val create : n:int -> k:int -> Net.Node_id.t -> 'a t
(** A process that sees no decision for [2k] consecutive subruns leaves with
    [Decision_silence]. *)

val id : 'a t -> Net.Node_id.t
val active : 'a t -> bool
val processed_upto : 'a t -> int
val pool_size : 'a t -> int
(** Messages received but not yet processed (unsequenced or out of order). *)

val history_length : 'a t -> int
val latest_decision : 'a t -> Total_decision.t
val sap_backlog : 'a t -> int

val submit : ?size:int -> 'a t -> 'a -> unit

val begin_subrun : 'a t -> subrun:int -> 'a action list
val mid_subrun : 'a t -> subrun:int -> 'a action list
val handle : 'a t -> 'a Total_wire.body -> 'a action list
