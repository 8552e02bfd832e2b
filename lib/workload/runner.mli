(** Experiment runner: builds a simulated urcgc group from a {!Scenario.t},
    injects the workload, runs to quiescence (or the time cap), and reduces
    the recorded events to the metrics the paper reports. *)

type report = {
  scenario : Scenario.t;
  generated : int;  (** data messages labelled and broadcast *)
  delivered_remote : int;  (** processing events at non-origin processes *)
  delay : Stats.Summary.t;
      (** end-to-end delay of remote processing events, in rtd — Figure 4's D *)
  completion_rtd : float;  (** time of the last processing event *)
  subruns : int;  (** subruns executed *)
  control_msgs : int;
  control_bytes : int;
  control_mean_size : float;
  control_max_size : int;
  data_msgs : int;
  data_bytes : int;
  recovery_msgs : int;
  recovery_bytes : int;
  history_peak : int;  (** max history length over nodes and time *)
  history_series : (int * int) list;
      (** per round: (round, max over nodes of history length) — Figure 6 *)
  waiting_peak : int;
  departures : Urcgc.Cluster.departure list;
  discarded : int;  (** orphaned messages destroyed by agreement *)
  fragments : int;
      (** distinct group views among the surviving processes: 1 is a healthy
          group; more means split-brain by mutual expulsion (possible only
          when the per-subrun failure budget is overrun) *)
  verdict : Checker.verdict;
}

val run : ?tracer:Sim.Trace.t -> ?metrics:Sim.Metrics.t -> Scenario.t -> report
(** [tracer] collects the typed protocol events (including network drops and
    the fail-stop schedule); [metrics] (default {!Sim.Metrics.null}) is
    populated with the run's counters, per-round depth gauges, and the
    delivery-latency histogram — see [docs/TRACE.md] for the catalogue.
    Neither affects the simulation itself: a traced run and an untraced run
    of the same scenario behave identically. *)

val control_msgs_per_subrun : report -> float
val mean_delay_rtd : report -> float
(** NaN-free: 0 when nothing was delivered. *)

val pp_report : Format.formatter -> report -> unit
