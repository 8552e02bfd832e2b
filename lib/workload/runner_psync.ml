type report = {
  name : string;
  generated : int;
  delivered_remote : int;
  delay : Stats.Summary.t;
  completion_rtd : float;
  subruns : int;
  control_msgs : int;
  recovery_msgs : int;
  data_msgs : int;
  pending_peak : int;
  dropped : int;
  masked : int;
  causal_ok : bool;
  violations : string list;
}

let mid_of { Psync.Context_graph.sender; seq } =
  Causal.Mid.make ~origin:sender ~seq

(* Psync's causal label: a message depends on its direct predecessors in
   the context graph. *)
let processing { Psync.Cluster.node; msg; at } =
  let { Psync.Context_graph.mid; preds; payload; payload_size } = msg in
  {
    Run_log.node;
    msg =
      Causal.Causal_msg.make ~mid:(mid_of mid) ~deps:(List.map mid_of preds)
        ~payload_size payload;
    at;
  }

let run ?tracer ?(name = "psync") ?pending_bound ~n ~k ~load ~fault ~seed
    ~max_rtd () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let cluster = Psync.Cluster.create ?tracer ?pending_bound ~n ~k ~net () in
  let group = Psync.Cluster.group cluster in
  let pending_peak = ref 0 in
  Load.drive
    ~sample:(fun ~round:_ ->
      List.iter
        (fun member ->
          if Psync.Member.active member then
            pending_peak := max !pending_peak (Psync.Member.pending member))
        (Psync.Cluster.members cluster))
    (Load.injector load ~rng group ~submit:(fun node id ->
         Psync.Cluster.submit ~size:load.Load.payload_size cluster node id))
    group
    ~start:(fun () -> Psync.Cluster.start cluster)
    ~quiescent:(fun () -> Psync.Cluster.quiescent cluster)
    ~max_rtd;
  let log = List.map processing (Psync.Cluster.deliveries cluster) in
  let { Run_log.generated; delivered_remote; delay; completion_rtd } =
    Run_log.tally
      (List.map
         (fun (mid, sent_at) ->
           { Urcgc.Cluster.mid = mid_of mid; payload = (); sent_at })
         (Psync.Cluster.generations cluster))
      log
  in
  let violations = ref [] in
  let causal_ok = Checker.check_causal ~n log ~violations in
  let traffic = Net.Netsim.traffic net in
  {
    name;
    generated;
    delivered_remote;
    delay;
    completion_rtd;
    subruns = Psync.Cluster.subrun cluster;
    control_msgs = Net.Traffic.count traffic Net.Traffic.Control;
    recovery_msgs = Net.Traffic.count traffic Net.Traffic.Recovery;
    data_msgs = Net.Traffic.count traffic Net.Traffic.Data;
    pending_peak = !pending_peak;
    dropped = Psync.Cluster.dropped cluster;
    masked = List.length (Psync.Cluster.masked cluster);
    causal_ok;
    violations = List.rev !violations;
  }

(* The summary of no samples has mean 0. *)
let mean_delay_rtd report = report.delay.Stats.Summary.mean

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ generated=%d delivered_remote=%d@ mean delay=%.3f rtd@ \
     completion=%.1f rtd@ control=%d recovery=%d data=%d@ pending peak=%d \
     dropped=%d masked=%d@ causal=%b@]"
    r.name r.generated r.delivered_remote (mean_delay_rtd r) r.completion_rtd
    r.control_msgs r.recovery_msgs r.data_msgs r.pending_peak r.dropped
    r.masked r.causal_ok
