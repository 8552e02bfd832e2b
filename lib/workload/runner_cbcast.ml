type report = {
  name : string;
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
  ack_msgs : int;
  unstable_peak : int;
  view_changes : int;
  flush_time_rtd : float;
  causal_ok : bool;
  atomicity_ok : bool;
  violations : string list;
}

(* CBCAST's causal label: a message's own vector entry is its sequence
   number, and every other nonzero entry [k] names the last message of
   [p_k] it depends on. *)
let processing { Cbcast.Cluster.node; data; at } =
  let { Cbcast.Cb_wire.sender; vt; payload; payload_size; _ } = data in
  let deps = ref [] in
  for k = Cbcast.Vclock.n vt - 1 downto 0 do
    let origin = Net.Node_id.of_int k in
    let seq = Cbcast.Vclock.get vt origin in
    if seq > 0 && not (Net.Node_id.equal origin sender) then
      deps := Causal.Mid.make ~origin ~seq :: !deps
  done;
  let mid = Causal.Mid.make ~origin:sender ~seq:(Cbcast.Cb_wire.seq data) in
  {
    Run_log.node;
    msg = Causal.Causal_msg.make ~mid ~deps:!deps ~payload_size payload;
    at;
  }

let run ?tracer ?(name = "cbcast") ~n ~k ~load ~fault ~seed ~max_rtd () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault ~rng:(Sim.Rng.split rng) in
  let cluster =
    Cbcast.Cluster.create ?tracer ~n ~k ~engine ~fault ~rng:(Sim.Rng.split rng) ()
  in
  let group = Cbcast.Cluster.group cluster in
  let unstable_peak = ref 0 in
  Load.drive
    ~sample:(fun ~round:_ ->
      List.iter
        (fun member ->
          if Cbcast.Member.active member then
            unstable_peak := max !unstable_peak (Cbcast.Member.unstable member))
        (Cbcast.Cluster.members cluster))
    (Load.injector load ~rng group ~submit:(fun node id ->
         Cbcast.Cluster.submit ~size:load.Load.payload_size cluster node id))
    group
    ~start:(fun () -> Cbcast.Cluster.start cluster)
    ~quiescent:(fun () -> Cbcast.Cluster.quiescent cluster)
    ~max_rtd;
  let log = List.map processing (Cbcast.Cluster.deliveries cluster) in
  let { Run_log.generated; delivered_remote; delay; completion_rtd } =
    Run_log.tally
      (List.map
         (fun (origin, seq, sent_at) ->
           { Urcgc.Cluster.mid = Causal.Mid.make ~origin ~seq; payload = (); sent_at })
         (Cbcast.Cluster.generations cluster))
      log
  in
  let flush_time_rtd =
    match Cbcast.Cluster.flush_starts cluster with
    | [] -> 0.0
    | starts -> (
        let first =
          List.fold_left
            (fun acc (_, _, at) -> Float.min acc (Sim.Ticks.to_rtd at))
            infinity starts
        in
        match Cbcast.Cluster.view_changes cluster with
        | [] ->
            (* A flush began but never completed within the run. *)
            Sim.Ticks.to_rtd (Sim.Engine.now engine) -. first
        | changes ->
            let last =
              List.fold_left
                (fun acc { Cbcast.Cluster.at; _ } ->
                  Float.max acc (Sim.Ticks.to_rtd at))
                0.0 changes
            in
            Float.max 0.0 (last -. first))
  in
  let violations = ref [] in
  let causal_ok = Checker.check_causal ~n log ~violations in
  let atomicity_ok =
    Checker.check_atomicity
      ~survivors:(Cbcast.Cluster.active_members cluster)
      log ~violations
  in
  let traffic = Cbcast.Cluster.traffic cluster in
  {
    name;
    generated;
    delivered_remote;
    delay;
    completion_rtd;
    subruns = Cbcast.Cluster.subrun cluster;
    control_msgs = Net.Traffic.count traffic Net.Traffic.Control;
    control_bytes = Net.Traffic.bytes traffic Net.Traffic.Control;
    control_mean_size = Net.Traffic.mean_size traffic Net.Traffic.Control;
    control_max_size = Net.Traffic.max_size traffic Net.Traffic.Control;
    data_msgs = Net.Traffic.count traffic Net.Traffic.Data;
    ack_msgs = Net.Traffic.count traffic Net.Traffic.Ack;
    unstable_peak = !unstable_peak;
    view_changes =
      List.length
        (List.sort_uniq compare
           (List.map
              (fun { Cbcast.Cluster.view_id; _ } -> view_id)
              (Cbcast.Cluster.view_changes cluster)));
    flush_time_rtd;
    causal_ok;
    atomicity_ok;
    violations = List.rev !violations;
  }

(* The summary of no samples has mean 0. *)
let mean_delay_rtd report = report.delay.Stats.Summary.mean

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ generated=%d delivered_remote=%d@ mean delay=%.3f rtd@ \
     completion=%.1f rtd@ control: %d msgs, mean %.0f B, max %d B; acks=%d@ \
     unstable peak=%d@ view changes=%d flush time=%.1f rtd@ causal=%b \
     atomic=%b@]"
    r.name r.generated r.delivered_remote (mean_delay_rtd r) r.completion_rtd
    r.control_msgs r.control_mean_size r.control_max_size r.ack_msgs
    r.unstable_peak r.view_changes r.flush_time_rtd r.causal_ok r.atomicity_ok
