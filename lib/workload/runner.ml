type report = {
  scenario : Scenario.t;
  generated : int;
  delivered_remote : int;
  delay : Stats.Summary.t;
  completion_rtd : float;
  subruns : int;
  control_msgs : int;
  control_bytes : int;
  control_mean_size : float;
  control_max_size : int;
  data_msgs : int;
  data_bytes : int;
  recovery_msgs : int;
  recovery_bytes : int;
  history_peak : int;
  history_series : (int * int) list;
  waiting_peak : int;
  departures : Urcgc.Cluster.departure list;
  discarded : int;
  fragments : int;
  verdict : Checker.verdict;
}

(* The scenario's load, submitted with urcgc's payload size and explicit
   dependency labelling. *)
let make_injector (scenario : Scenario.t) cluster rng =
  let load = scenario.load in
  (* Over the codec boundary the int payloads encode to exactly 8 bytes, and
     the codec refuses size lies. *)
  let size = if scenario.codec_boundary then 8 else load.Load.payload_size in
  let deps_for node =
    match load.Load.deps_mode with
    | Load.Frontier -> None
    | Load.Own_chain -> Some []
    | Load.Random_frontier p ->
        let member = Urcgc.Cluster.member cluster node in
        let n = scenario.config.Urcgc.Config.n in
        let deps = ref [] in
        for j = 0 to n - 1 do
          let origin = Net.Node_id.of_int j in
          if not (Net.Node_id.equal origin node) then begin
            let seq = Urcgc.Member.last_processed member origin in
            if seq > 0 && Sim.Rng.bool rng p then
              deps := Causal.Mid.make ~origin ~seq :: !deps
          end
        done;
        Some !deps
  in
  Load.injector load ~rng (Urcgc.Cluster.group cluster) ~submit:(fun node id ->
      Urcgc.Cluster.submit ?deps:(deps_for node) ~size cluster node id)

let run ?tracer ?(metrics = Sim.Metrics.null) (scenario : Scenario.t) =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:scenario.seed in
  let fault = Net.Fault.create scenario.fault ~rng:(Sim.Rng.split rng) in
  (* Keep a handle on the raw network component: the medium abstracts it
     away, but the trace sink and the metrics counters need it. *)
  let medium, net_dropped, net_retransmissions, net_fragments, net_set_trace =
    match scenario.mount with
    | Scenario.Datagram ->
        let net =
          Net.Netsim.create ?latency:scenario.latency engine ~fault
            ~rng:(Sim.Rng.split rng) ()
        in
        ( Urcgc.Medium.of_netsim net,
          (fun () -> Net.Netsim.dropped_count net),
          (fun () -> 0),
          (fun () -> 0),
          fun trace -> Net.Netsim.set_trace net trace )
    | Scenario.Transport h ->
        let transport =
          Net.Transport.create ?latency:scenario.latency engine ~fault
            ~rng:(Sim.Rng.split rng) ()
        in
        ( Urcgc.Medium.of_transport ~h transport,
          (fun () -> Net.Transport.dropped_count transport),
          (fun () -> Net.Transport.retransmissions transport),
          (fun () -> Net.Transport.fragments_sent transport),
          fun trace -> Net.Transport.set_trace transport trace )
  in
  (match tracer with
  | Some trace when Sim.Trace.enabled trace ->
      net_set_trace trace;
      (* Narrate the fail-stop schedule: one Crash event at each scheduled
         time.  The handler touches only the trace sink, so enabling tracing
         cannot perturb the run itself. *)
      let crash =
        Sim.Engine.register engine ~label:"event" (fun node ->
            Sim.Trace.emit trace ~time:(Sim.Engine.now engine)
              (Sim.Trace.Crash { node }))
      in
      List.iter
        (fun (node, time) ->
          Sim.Engine.post_after engine crash ~delay:time
            (Net.Node_id.to_int node))
        scenario.fault.Net.Fault.crashes
  | Some _ | None -> ());
  let medium =
    if scenario.codec_boundary then
      (* Workload payloads are ints; encode them as fixed-width strings so
         the declared payload size is honored on the wire. *)
      let int_codec =
        {
          Net.Bytebuf.encode =
            (fun value ->
              let raw = Bytes.create 8 in
              Bytes.set_int64_be raw 0 (Int64.of_int value);
              raw);
          decode =
            (fun raw ->
              if Bytes.length raw <> 8 then Error "int payload: wrong size"
              else Ok (Int64.to_int (Bytes.get_int64_be raw 0)));
        }
      in
      Urcgc.Medium.with_codec int_codec medium
    else medium
  in
  let cluster =
    Urcgc.Cluster.create_with_medium ?tracer ~config:scenario.config ~medium ()
  in
  (* Sampling: per-round maxima of history and waiting-list lengths. *)
  let history_series = ref [] in
  let history_peak = ref 0 in
  let waiting_peak = ref 0 in
  let sample ~round =
    let history_max = ref 0 and waiting_max = ref 0 in
    List.iter
      (fun member ->
        if Urcgc.Member.active member then begin
          history_max := max !history_max (Urcgc.Member.history_length member);
          waiting_max := max !waiting_max (Urcgc.Member.waiting_length member)
        end)
      (Urcgc.Cluster.members cluster);
    history_series := (round, !history_max) :: !history_series;
    history_peak := max !history_peak !history_max;
    waiting_peak := max !waiting_peak !waiting_max;
    if Sim.Metrics.enabled metrics then begin
      Sim.Metrics.set_gauge metrics "history.occupancy" !history_max;
      Sim.Metrics.set_gauge metrics "waiting.depth" !waiting_max;
      Sim.Metrics.observe metrics "history.occupancy_per_round"
        (float_of_int !history_max);
      Sim.Metrics.observe metrics "waiting.depth_per_round"
        (float_of_int !waiting_max)
    end
  in
  Load.drive ~sample
    (make_injector scenario cluster rng)
    (Urcgc.Cluster.group cluster)
    ~start:(fun () -> Urcgc.Cluster.start cluster)
    ~quiescent:(fun () -> Urcgc.Cluster.quiescent cluster)
    ~max_rtd:scenario.max_rtd;
  (* Reduce the event log to the report. *)
  if !Sim.Prof.on then Sim.Prof.enter "runner.reduce";
  let deliveries = Urcgc.Cluster.deliveries cluster in
  let { Run_log.generated; delivered_remote; delay; completion_rtd } =
    Run_log.tally
      ~observe:(Sim.Metrics.observe metrics "delivery.latency_rtd")
      (Urcgc.Cluster.generations cluster)
      deliveries
  in
  let traffic = Urcgc.Medium.traffic medium in
  let fragments =
    Urcgc.Cluster.active_members cluster
    |> List.map (fun node ->
           Causal.Group_view.alive_array
             (Urcgc.Member.view (Urcgc.Cluster.member cluster node)))
    |> List.sort_uniq compare |> List.length
  in
  let discarded =
    List.fold_left
      (fun acc (_, mids, _) -> acc + List.length mids)
      0
      (Urcgc.Cluster.discards cluster)
  in
  if Sim.Metrics.enabled metrics then begin
    Sim.Metrics.incr metrics ~by:generated "messages.generated";
    Sim.Metrics.incr metrics ~by:delivered_remote "deliveries.remote";
    Sim.Metrics.incr metrics ~by:discarded "messages.discarded";
    Sim.Metrics.incr metrics
      ~by:(List.length (Urcgc.Cluster.departures cluster))
      "departures";
    Sim.Metrics.incr metrics ~by:(net_dropped ()) "net.drops";
    Sim.Metrics.incr metrics ~by:(net_retransmissions ()) "net.retransmissions";
    Sim.Metrics.incr metrics ~by:(net_fragments ()) "net.fragments_sent"
  end;
  let report = {
    scenario;
    generated;
    delivered_remote;
    delay;
    completion_rtd;
    subruns = Urcgc.Cluster.subrun cluster;
    control_msgs = Net.Traffic.count traffic Net.Traffic.Control;
    control_bytes = Net.Traffic.bytes traffic Net.Traffic.Control;
    control_mean_size = Net.Traffic.mean_size traffic Net.Traffic.Control;
    control_max_size = Net.Traffic.max_size traffic Net.Traffic.Control;
    data_msgs = Net.Traffic.count traffic Net.Traffic.Data;
    data_bytes = Net.Traffic.bytes traffic Net.Traffic.Data;
    recovery_msgs = Net.Traffic.count traffic Net.Traffic.Recovery;
    recovery_bytes = Net.Traffic.bytes traffic Net.Traffic.Recovery;
    history_peak = !history_peak;
    history_series = List.rev !history_series;
    waiting_peak = !waiting_peak;
    departures = Urcgc.Cluster.departures cluster;
    discarded;
    fragments;
    verdict = Checker.check_log cluster deliveries;
  } in
  if !Sim.Prof.on then Sim.Prof.exit ();
  report

let control_msgs_per_subrun report =
  if report.subruns = 0 then 0.0
  else float_of_int report.control_msgs /. float_of_int report.subruns

(* The summary of no samples has mean 0. *)
let mean_delay_rtd report = report.delay.Stats.Summary.mean

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ generated=%d delivered_remote=%d@ mean delay=%.3f rtd (p95 \
     %.3f)@ completion=%.1f rtd over %d subruns@ control: %d msgs, mean %.0f \
     B, max %d B@ recovery: %d msgs@ history peak=%d waiting peak=%d@ \
     departures=%d discarded=%d@ %a@]"
    r.scenario.Scenario.name r.generated r.delivered_remote
    (mean_delay_rtd r) r.delay.Stats.Summary.p95 r.completion_rtd r.subruns
    r.control_msgs r.control_mean_size r.control_max_size r.recovery_msgs
    r.history_peak r.waiting_peak
    (List.length r.departures)
    r.discarded Checker.pp r.verdict
