(** Identity of a process/site in the group.

    Processes are numbered [0 .. n-1]; the paper writes them p_1 .. p_n.  The
    integer is also the index of the process in every per-group vector
    (history entries, [last_processed], decision fields, ...). *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] if negative. *)

val to_int : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [p3]. *)

val peers : bool array -> self:t -> t list
(** [peers alive ~self] is every id [i] with [alive.(i)] except [self],
    ascending: the destinations of a multicast over a membership vector. *)

val group : int -> t list
(** [group n] is [p0; ...; p(n-1)].  Raises [Invalid_argument] if [n <= 0]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
