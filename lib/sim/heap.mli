(** Binary min-heap of ints keyed by [(Ticks.t, int)].

    The integer key component is an insertion sequence number supplied by the
    caller; it breaks ties deterministically so that two entries pushed for
    the same instant pop in insertion order.  Keys and values live in
    parallel int arrays, so neither a push nor a pop allocates once the
    arrays have grown. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> time:Ticks.t -> seq:int -> int -> unit

val top_time : t -> Ticks.t
(** Time of the smallest entry.  Raises [Invalid_argument] on an empty
    heap. *)

val pop_top : t -> int
(** Removes the smallest entry and returns its value.  Raises
    [Invalid_argument] on an empty heap. *)
