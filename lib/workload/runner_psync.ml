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

(* Causal order under Psync: a message may be delivered only after every one
   of its direct predecessors was delivered at the same node. *)
let check_causal deliveries violations =
  let seen = Hashtbl.create 1024 in
  let ok = ref true in
  List.iter
    (fun { Psync.Cluster.node; msg; at } ->
      let missing =
        List.filter
          (fun pred -> not (Hashtbl.mem seen (node, pred)))
          msg.Psync.Context_graph.preds
      in
      if missing <> [] then begin
        ok := false;
        violations :=
          Format.asprintf "%a delivered %a before %d predecessor(s) at %a"
            Net.Node_id.pp node Psync.Context_graph.pp_mid
            msg.Psync.Context_graph.mid (List.length missing) Sim.Ticks.pp at
          :: !violations
      end;
      Hashtbl.replace seen (node, msg.Psync.Context_graph.mid) ())
    deliveries;
  !ok

let run ?tracer ?(name = "psync") ?pending_bound ~n ~k ~load ~fault ~seed
    ~max_rtd () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let cluster = Psync.Cluster.create ?tracer ?pending_bound ~n ~k ~net () in
  let injector =
    Load.injector load ~rng (Psync.Cluster.group cluster) ~submit:(fun node id ->
        Psync.Cluster.submit ~size:load.Load.payload_size cluster node id)
  in
  Psync.Cluster.on_round cluster (Load.inject injector);
  let pending_peak = ref 0 in
  Psync.Cluster.on_round cluster (fun ~round:_ ->
      List.iter
        (fun member ->
          if Psync.Member.active member then
            pending_peak := max !pending_peak (Psync.Member.pending member))
        (Psync.Cluster.members cluster));
  Psync.Cluster.start cluster;
  Net.Group.run (Psync.Cluster.group cluster) ~max_rtd ~until:(fun () ->
      Load.cap_reached injector && Psync.Cluster.quiescent cluster);
  let deliveries = Psync.Cluster.deliveries cluster in
  let sent_at = Hashtbl.create 256 in
  List.iter
    (fun (mid, at) -> Hashtbl.replace sent_at mid at)
    (Psync.Cluster.generations cluster);
  let remote =
    List.filter
      (fun { Psync.Cluster.node; msg; _ } ->
        not (Net.Node_id.equal node msg.Psync.Context_graph.mid.sender))
      deliveries
  in
  let delays =
    List.filter_map
      (fun { Psync.Cluster.msg; at; _ } ->
        match Hashtbl.find_opt sent_at msg.Psync.Context_graph.mid with
        | None -> None
        | Some t0 -> Some (Sim.Ticks.to_rtd (Sim.Ticks.diff at t0)))
      remote
  in
  let completion_rtd =
    List.fold_left
      (fun acc (d : _ Psync.Cluster.delivery) ->
        Float.max acc (Sim.Ticks.to_rtd d.at))
      0.0 deliveries
  in
  let violations = ref [] in
  let causal_ok = check_causal deliveries violations in
  let traffic = Net.Netsim.traffic net in
  {
    name;
    generated = List.length (Psync.Cluster.generations cluster);
    delivered_remote = List.length remote;
    delay = Stats.Summary.of_list delays;
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

let mean_delay_rtd report =
  if report.delay.Stats.Summary.count = 0 then 0.0
  else report.delay.Stats.Summary.mean

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ generated=%d delivered_remote=%d@ mean delay=%.3f rtd@ \
     completion=%.1f rtd@ control=%d recovery=%d data=%d@ pending peak=%d \
     dropped=%d masked=%d@ causal=%b@]"
    r.name r.generated r.delivered_remote (mean_delay_rtd r) r.completion_rtd
    r.control_msgs r.recovery_msgs r.data_msgs r.pending_peak r.dropped
    r.masked r.causal_ok
