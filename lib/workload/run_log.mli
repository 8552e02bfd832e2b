(** A run's logs in the shape every stack is reduced and judged in, and
    the reduce to report numbers.  urcgc records this shape; the CBCAST
    and Psync runners map their logs into it. *)

type 'a processing = 'a Urcgc.Cluster.delivery = {
  node : Net.Node_id.t;  (** where the message was processed *)
  msg : 'a Causal.Causal_msg.t;  (** the message and its causal label *)
  at : Sim.Ticks.t;
}

type tally = {
  generated : int;  (** messages generated *)
  delivered_remote : int;  (** processing events away from the origin *)
  delay : Stats.Summary.t;
      (** generation-to-processing delay of the remote events that have a
          generation, in rtd *)
  completion_rtd : float;  (** time of the last processing event *)
}

val tally :
  ?observe:(float -> unit) ->
  'g Urcgc.Cluster.generation list ->
  'a processing list ->
  tally
(** One pass over the log, in log order; [observe] (default: nothing) sees
    each remote delay as it is counted.  Generations come as urcgc records
    them. *)
