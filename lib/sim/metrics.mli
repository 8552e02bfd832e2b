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

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

val histogram : t -> string -> summary option
(** Nearest-rank quantiles over the recorded samples. *)

val summary_of_ints : int list -> summary
(** The same nearest-rank summary over integer samples (the trace
    analyzer's tick distributions); every field is zero when the list is
    empty. *)

val to_json : t -> string
(** One JSON object: [{"counters":{...},"gauges":{...},"histograms":{...}}],
    names in sorted order.  [{}] for {!null}. *)

val buf_json : t -> Buffer.t -> unit
(** Append {!to_json} output to a buffer (used by the campaign report
    writer). *)

val pp : Format.formatter -> t -> unit
(** Human-readable table (used by the bench and replay output). *)
