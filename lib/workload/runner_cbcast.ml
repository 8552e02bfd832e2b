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

(* Replay the delivery log and verify CBCAST's own causal condition. *)
let check_causal n deliveries violations =
  let locals = Hashtbl.create 16 in
  let local node =
    match Hashtbl.find_opt locals node with
    | Some vt -> vt
    | None ->
        let vt = Cbcast.Vclock.create ~n in
        Hashtbl.replace locals node vt;
        vt
  in
  let ok = ref true in
  List.iter
    (fun { Cbcast.Cluster.node; data; at } ->
      let vt = local node in
      if
        Cbcast.Vclock.deliverable ~msg_vt:data.Cbcast.Cb_wire.vt
          ~from:data.Cbcast.Cb_wire.sender ~local:vt
      then Cbcast.Vclock.tick vt data.Cbcast.Cb_wire.sender
      else begin
        ok := false;
        violations :=
          Format.asprintf "%a delivered %a#%d out of causal order at %a"
            Net.Node_id.pp node Net.Node_id.pp data.Cbcast.Cb_wire.sender
            (Cbcast.Cb_wire.seq data) Sim.Ticks.pp at
          :: !violations;
        Cbcast.Vclock.merge vt data.Cbcast.Cb_wire.vt
      end)
    deliveries;
  !ok

let check_atomicity actives deliveries violations =
  let sets = Hashtbl.create 16 in
  List.iter (fun node -> Hashtbl.replace sets node []) actives;
  List.iter
    (fun { Cbcast.Cluster.node; data; _ } ->
      match Hashtbl.find_opt sets node with
      | None -> ()
      | Some acc ->
          Hashtbl.replace sets node
            ((Net.Node_id.to_int data.Cbcast.Cb_wire.sender, Cbcast.Cb_wire.seq data)
            :: acc))
    deliveries;
  match actives with
  | [] -> true
  | first :: rest ->
      let norm node = List.sort_uniq compare (Hashtbl.find sets node) in
      let reference = norm first in
      let ok = ref true in
      List.iter
        (fun node ->
          if norm node <> reference then begin
            ok := false;
            violations :=
              Format.asprintf "cbcast atomicity: %a and %a delivered \
                               different message sets"
                Net.Node_id.pp first Net.Node_id.pp node
              :: !violations
          end)
        rest;
      !ok

let run ?tracer ?(name = "cbcast") ~n ~k ~load ~fault ~seed ~max_rtd () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault ~rng:(Sim.Rng.split rng) in
  let cluster =
    Cbcast.Cluster.create ?tracer ~n ~k ~engine ~fault ~rng:(Sim.Rng.split rng) ()
  in
  let injector =
    Load.injector load ~rng (Cbcast.Cluster.group cluster) ~submit:(fun node id ->
        Cbcast.Cluster.submit ~size:load.Load.payload_size cluster node id)
  in
  Cbcast.Cluster.on_round cluster (Load.inject injector);
  let unstable_peak = ref 0 in
  Cbcast.Cluster.on_round cluster (fun ~round:_ ->
      List.iter
        (fun member ->
          if Cbcast.Member.active member then
            unstable_peak := max !unstable_peak (Cbcast.Member.unstable member))
        (Cbcast.Cluster.members cluster));
  Cbcast.Cluster.start cluster;
  Net.Group.run (Cbcast.Cluster.group cluster) ~max_rtd ~until:(fun () ->
      Load.cap_reached injector && Cbcast.Cluster.quiescent cluster);
  let deliveries = Cbcast.Cluster.deliveries cluster in
  let generations = Cbcast.Cluster.generations cluster in
  let sent_at = Hashtbl.create 256 in
  List.iter
    (fun (sender, seq, at) ->
      Hashtbl.replace sent_at (Net.Node_id.to_int sender, seq) at)
    generations;
  let remote =
    List.filter
      (fun { Cbcast.Cluster.node; data; _ } ->
        not (Net.Node_id.equal node data.Cbcast.Cb_wire.sender))
      deliveries
  in
  let delays =
    List.filter_map
      (fun { Cbcast.Cluster.data; at; _ } ->
        match
          Hashtbl.find_opt sent_at
            (Net.Node_id.to_int data.Cbcast.Cb_wire.sender, Cbcast.Cb_wire.seq data)
        with
        | None -> None
        | Some t0 -> Some (Sim.Ticks.to_rtd (Sim.Ticks.diff at t0)))
      remote
  in
  let completion_rtd =
    List.fold_left
      (fun acc (d : _ Cbcast.Cluster.delivery) ->
        Float.max acc (Sim.Ticks.to_rtd d.at))
      0.0 deliveries
  in
  let flush_time_rtd =
    match (Cbcast.Cluster.flush_starts cluster, Cbcast.Cluster.view_changes cluster) with
    | [], _ -> 0.0
    | starts, [] ->
        (* A flush began but never completed within the run. *)
        let first =
          List.fold_left
            (fun acc (_, _, at) -> Float.min acc (Sim.Ticks.to_rtd at))
            infinity starts
        in
        Sim.Ticks.to_rtd (Sim.Engine.now engine) -. first
    | starts, changes ->
        let first =
          List.fold_left
            (fun acc (_, _, at) -> Float.min acc (Sim.Ticks.to_rtd at))
            infinity starts
        in
        let last =
          List.fold_left
            (fun acc { Cbcast.Cluster.at; _ } -> Float.max acc (Sim.Ticks.to_rtd at))
            0.0 changes
        in
        Float.max 0.0 (last -. first)
  in
  let actives = Cbcast.Cluster.active_members cluster in
  let violations = ref [] in
  let causal_ok = check_causal n deliveries violations in
  let atomicity_ok = check_atomicity actives deliveries violations in
  let traffic = Cbcast.Cluster.traffic cluster in
  {
    name;
    generated = List.length generations;
    delivered_remote = List.length remote;
    delay = Stats.Summary.of_list delays;
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

let mean_delay_rtd report =
  if report.delay.Stats.Summary.count = 0 then 0.0
  else report.delay.Stats.Summary.mean

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ generated=%d delivered_remote=%d@ mean delay=%.3f rtd@ \
     completion=%.1f rtd@ control: %d msgs, mean %.0f B, max %d B; acks=%d@ \
     unstable peak=%d@ view changes=%d flush time=%.1f rtd@ causal=%b \
     atomic=%b@]"
    r.name r.generated r.delivered_remote (mean_delay_rtd r) r.completion_rtd
    r.control_msgs r.control_mean_size r.control_max_size r.ack_msgs
    r.unstable_peak r.view_changes r.flush_time_rtd r.causal_ok r.atomicity_ok
