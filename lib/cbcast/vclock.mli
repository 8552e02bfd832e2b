(** Vector timestamps, as used by the ISIS CBCAST primitive [BSS91].

    Entry [j] counts the messages of process [j] that the owner has
    delivered (or, on a message, that causally precede it). *)

type t

val create : n:int -> t
(** All zero. *)

val of_array : int array -> t
val to_array : t -> int array
val copy : t -> t

val n : t -> int

val get : t -> Net.Node_id.t -> int

val tick : t -> Net.Node_id.t -> unit
(** Increment one entry in place. *)

val merge : t -> t -> unit
(** Pointwise maximum, into the first argument. *)

val min_into : t -> t -> unit
(** Pointwise minimum, into the first argument — stability accumulation. *)

val le : t -> t -> bool
(** Pointwise [<=]. *)

val equal : t -> t -> bool

val deliverable : msg_vt:t -> from:Net.Node_id.t -> local:t -> bool
(** The CBCAST causal delivery condition at a process with delivery vector
    [local], for a message from [from] stamped [msg_vt]:
    [msg_vt(from) = local(from) + 1] and [msg_vt(k) <= local(k)] for every
    other [k]. *)

val encoded_size : t -> int
(** [4n] bytes. *)

val pp : Format.formatter -> t -> unit
