(** Metrics registry.

    A small, dependency-free registry of named counters, gauges, and
    histograms that the workload runners populate during a simulation run.
    The JSON rendering is deterministic (names sorted, [%.12g] floats), so
    fixed-seed campaign reports that embed metrics stay byte-identical.

    The metric catalogue (names and units) is documented in
    [docs/TRACE.md]. *)

type t

val null : t
(** Discards everything; recording into it costs nothing and retains
    nothing. *)

val create : unit -> t

val enabled : t -> bool
(** [false] exactly for {!null}. *)

val incr : ?by:int -> t -> string -> unit
(** Add [by] (default 1) to a counter, creating it at zero first. *)

val set_gauge : t -> string -> int -> unit
(** Record an instantaneous level; the registry keeps the last and the peak
    value observed. *)

val observe : t -> string -> float -> unit
(** Record one histogram sample. *)

(** {2 Read-back} *)

val counter : t -> string -> int
(** Current counter value; 0 if never incremented (or on {!null}). *)

val gauge_last : t -> string -> int option
val gauge_peak : t -> string -> int option

val histogram : t -> string -> Stats.Summary.t option
(** Nearest-rank quantiles ({!Stats.Summary.nearest_rank}) over the
    recorded samples, with the mean of their running sum. *)

val to_json : t -> string
(** One JSON object: [{"counters":{...},"gauges":{...},"histograms":{...}}],
    names in sorted order.  [{}] for {!null}. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table (used by the bench and replay output). *)
