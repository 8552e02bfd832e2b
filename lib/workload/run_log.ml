type 'a processing = 'a Urcgc.Cluster.delivery = {
  node : Net.Node_id.t;
  msg : 'a Causal.Causal_msg.t;
  at : Sim.Ticks.t;
}

type tally = {
  generated : int;
  delivered_remote : int;
  delay : Stats.Summary.t;
  completion_rtd : float;
}

let tally ?(observe = ignore) generations log =
  let generated = List.length generations in
  let sent_at = Hashtbl.create generated in
  List.iter
    (fun { Urcgc.Cluster.mid; sent_at = t0; _ } -> Hashtbl.replace sent_at mid t0)
    generations;
  (* The last tick, not the last rtd: an int ref updates without boxing. *)
  let last = ref Sim.Ticks.zero and remote = ref 0 and delays = ref [] in
  List.iter
    (fun { node; msg; at } ->
      if Sim.Ticks.(!last < at) then last := at;
      let mid = msg.Causal.Causal_msg.mid in
      if not (Net.Node_id.equal node (Causal.Mid.origin mid)) then begin
        incr remote;
        match Hashtbl.find_opt sent_at mid with
        | None -> ()
        | Some t0 ->
            let delay = Sim.Ticks.to_rtd (Sim.Ticks.diff at t0) in
            observe delay;
            delays := delay :: !delays
      end)
    log;
  {
    generated;
    delivered_remote = !remote;
    delay = Stats.Summary.of_list !delays;
    completion_rtd = Sim.Ticks.to_rtd !last;
  }
