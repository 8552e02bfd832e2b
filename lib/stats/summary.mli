(** Descriptive statistics over a sample of floats: the one summary every
    report uses.  Two quantile rules share one core: {!interpolated} (the
    runs' delays, profiler latencies, {!percentile}) and {!nearest_rank}
    (metrics histograms and the trace analyzer's distributions). *)

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

val interpolated : float array -> int -> t
(** [interpolated a count] sorts [a.(0) .. a.(count - 1)] ascending in
    place and summarizes them: quantiles interpolate linearly between the
    two closest ranks, and the mean sums the samples in ascending order.
    The sort compares the flat floats directly, where [Array.sort] boxes
    both operands of every comparison.  {!empty} when [count = 0]. *)

val nearest_rank : float array -> int -> sum:float -> t
(** The same in-place sort, with nearest-rank quantiles
    ([rank(q) = ceil (q * count)]) and mean [sum / count] for a [sum] the
    caller keeps (a histogram's running sum in recording order). *)

val of_list : float list -> t
(** {!interpolated} over the samples. *)

val of_ints : int list -> t

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0, 1], linear interpolation.  The
    array must be sorted ascending; raises [Invalid_argument] if empty or
    [q] out of range. *)
