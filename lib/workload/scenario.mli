(** A complete experiment description: group, protocol parameters, workload,
    failures, seed, and run length.  A scenario plus a seed determines a run
    exactly. *)

type mount =
  | Datagram
      (** urcgc directly over the datagram subnetwork — the paper's [h = 1]
          evaluated configuration *)
  | Transport of Urcgc.Medium.h_policy
      (** over the Section 5 transport entity, retransmitting until the
          given number of destinations acknowledged *)

type t = {
  name : string;
  config : Urcgc.Config.t;
  load : Load.t;
  fault : Net.Fault.spec;
  mount : mount;
  latency : Net.Netsim.latency option;
      (** one-way latency model; [None] = the default (0.40–0.49 rtd) *)
  codec_boundary : bool;
      (** when true every PDU crosses the binary codec in flight (requires
          the runner's payload type to encode losslessly) *)
  seed : int;
  max_rtd : float;
      (** hard cap on simulated time; the runner may stop earlier once the
          workload is exhausted and the group is quiescent *)
}

val make :
  ?name:string ->
  ?fault:Net.Fault.spec ->
  ?mount:mount ->
  ?latency:Net.Netsim.latency ->
  ?codec_boundary:bool ->
  ?seed:int ->
  ?max_rtd:float ->
  config:Urcgc.Config.t ->
  load:Load.t ->
  unit ->
  t
(** Defaults: reliable network, [Datagram] mounting, seed 42,
    [max_rtd = 400]. *)

val crash_at_subrun : t -> Net.Node_id.t -> subrun:int -> t
(** Adds a fail-stop of the given process at the start of the given subrun
    (plus a tick, so the process still acts in earlier subruns). *)
