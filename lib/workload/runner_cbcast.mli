(** Experiment runner for the CBCAST baseline, mirroring {!Runner} so the
    benchmark harness can print urcgc and CBCAST rows side by side.

    It shares urcgc's harness end to end: {!Load.drive} runs it, its log
    mapped by {!processing} is reduced by {!Run_log.tally}, and
    {!Checker.check_causal} and {!Checker.check_atomicity} give its
    [causal_ok], [atomicity_ok] and [violations]. *)

type report = {
  name : string;
  generated : int;
  delivered_remote : int;
  delay : Stats.Summary.t;  (** end-to-end delay in rtd *)
  completion_rtd : float;
  subruns : int;
  control_msgs : int;
  control_bytes : int;
  control_mean_size : float;
  control_max_size : int;
  data_msgs : int;
  ack_msgs : int;
  unstable_peak : int;  (** CBCAST's history analogue *)
  view_changes : int;
  flush_time_rtd : float;
      (** total simulated time between the first flush start and the last
          view installation — the paper's T for CBCAST (Figure 5) *)
  causal_ok : bool;
  atomicity_ok : bool;
  violations : string list;
}

val run :
  ?tracer:Sim.Trace.t ->
  ?name:string ->
  n:int ->
  k:int ->
  load:Load.t ->
  fault:Net.Fault.spec ->
  seed:int ->
  max_rtd:float ->
  unit ->
  report

val processing : 'a Cbcast.Cluster.delivery -> 'a Run_log.processing
(** A delivery with CBCAST's causal label: mid [(sender, vt(sender))],
    dependencies [(k, vt(k))] for every [k <> sender] with [vt(k) > 0]. *)

val mean_delay_rtd : report -> float

val pp_report : Format.formatter -> report -> unit
