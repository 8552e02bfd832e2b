(** The Psync context graph [PBS89].

    A conversation is a DAG of messages: each message carries the identifiers
    of the messages it directly follows (the leaves of the sender's view of
    the graph at send time).  A message can be attached — and hence shown to
    the application — only when all of its predecessors are attached, which
    yields causal ordering by construction. *)

type mid = { sender : Net.Node_id.t; seq : int }

val pp_mid : Format.formatter -> mid -> unit

type 'a node = {
  mid : mid;
  preds : mid list;  (** direct predecessors in the conversation *)
  payload : 'a;
  payload_size : int;
}

type 'a t

val create : unit -> 'a t

val mem : 'a t -> mid -> bool

val attached : 'a t -> int
(** Number of messages attached to the graph. *)

val leaves : 'a t -> mid list
(** Current leaves (messages without attached successors), in mid order —
    what a new message of this participant will list as predecessors. *)

val attach : 'a t -> 'a node -> ('a node list, mid list) result
(** Attach the node if all predecessors are present: returns the list of
    nodes attached by this call, in causal order — the node itself plus any
    pending successors it unblocked.  Otherwise returns the missing mids and
    parks the node in the pending set. *)

val pending : 'a t -> int

val pending_drop_newest : 'a t -> int -> mid list
(** Flow control: drop pending messages beyond the given bound, newest mids
    first; returns what was dropped.  Dropping re-creates omission failures,
    as the paper notes about Psync. *)

val find : 'a t -> mid -> 'a node option
(** An attached node, for retransmission. *)
