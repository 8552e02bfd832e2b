(** Byte-accurate accounting of the traffic a protocol offers to the network.

    Table 1 of the paper reports the *amount* and *size* of control messages;
    every packet handed to {!Netsim} is classified so the benchmark harness
    can reproduce that table from measurements rather than formulas. *)

type kind = Data | Control | Recovery | Ack

type t

val create : unit -> t

val record : t -> kind:kind -> size:int -> unit

val count : t -> kind -> int
(** Number of packets of that kind handed to the network. *)

val bytes : t -> kind -> int

val total_count : t -> int
val total_bytes : t -> int

val mean_size : t -> kind -> float
(** Mean packet size of a kind; 0 if none were sent. *)

val max_size : t -> kind -> int

val reset : t -> unit
