(** Experiment runner for the Psync baseline.

    It shares urcgc's harness end to end: {!Load.drive} runs it, its log
    mapped by {!processing} is reduced by {!Run_log.tally}, and
    {!Checker.check_causal} gives its [causal_ok] and [violations]. *)

type report = {
  name : string;
  generated : int;
  delivered_remote : int;
  delay : Stats.Summary.t;  (** end-to-end delay in rtd *)
  completion_rtd : float;
  subruns : int;
  control_msgs : int;
  recovery_msgs : int;
  data_msgs : int;
  pending_peak : int;
  dropped : int;  (** pending messages truncated by Psync's flow control *)
  masked : int;  (** mask_out agreements observed *)
  causal_ok : bool;
  violations : string list;
}

val run :
  ?tracer:Sim.Trace.t ->
  ?name:string ->
  ?pending_bound:int ->
  n:int ->
  k:int ->
  load:Load.t ->
  fault:Net.Fault.spec ->
  seed:int ->
  max_rtd:float ->
  unit ->
  report

val processing : 'a Psync.Cluster.delivery -> 'a Run_log.processing
(** A delivery with Psync's causal label: the message depends on its
    direct predecessors in the context graph. *)

val mean_delay_rtd : report -> float

val pp_report : Format.formatter -> report -> unit
