(** Diffusion groups (Section 3).

    "The algorithm we present may apply [...] to diffusion groups, by
    multicasting messages to the full set of server and client processes."

    A diffusion client is a passive receiver outside the peer group: it
    gets every data message and every coordinator decision the servers
    multicast, and it is one {!Urcgc.Gmt} fed those decisions, the same
    processing, history, purge and recovery a member runs.  Its recover
    requests go over an edge network to the servers' retention buffers (a
    bounded tail of what each server processed), since a server's protocol
    history drops a message once every member processed it.  A client never
    sends a subrun request, never coordinates, and does not count toward
    group decisions. *)

type 'a client

type 'a t

val attach_clients :
  'a Urcgc.Cluster.t ->
  net:'a Urcgc.Wire.body Net.Netsim.t ->
  client_ids:Net.Node_id.t list ->
  'a t
(** Registers the clients on the network and extends the servers' multicasts
    to them.  Client ids must be outside the group's [0, n) range and not
    already attached to [net].  Call before [Urcgc.Cluster.start]. *)

val clients : 'a t -> 'a client list

val client : 'a t -> Net.Node_id.t -> 'a client
(** Raises [Not_found] for an unknown id. *)

val client_id : 'a client -> Net.Node_id.t

val processed : 'a client -> (Causal.Mid.t * 'a) list
(** Everything the client processed, in its causal processing order. *)

val processed_count : 'a client -> int
val waiting_length : 'a client -> int
val last_processed : 'a client -> Net.Node_id.t -> int
