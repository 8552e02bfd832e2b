(** Descriptive statistics over a sample of floats. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation; 0 for count < 2 *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val empty : t
(** All-zero summary of an empty sample. *)

val of_list : float list -> t

val of_ints : int list -> t

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0, 1], linear interpolation.  The
    array must be sorted ascending; raises [Invalid_argument] if empty or
    [q] out of range. *)
