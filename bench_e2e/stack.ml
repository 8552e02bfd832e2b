(* The urcgc stack, built and driven through its public API only:
   [Net.Netsim] under [Urcgc.Medium] under [Urcgc.Cluster], load injected
   from a [Cluster.on_round] hook with [Workload.Load] semantics, and
   [Workload.Checker] as the judge.

   This stepping code serves the steady windows and the campaign mirror.  It
   follows [Workload.Runner.run] draw for draw (same RNG splits, same
   injector), which is what lets the mirror reproduce [Campaign.run]'s
   records exactly. *)

type shape = {
  n : int;
  k : int option;  (** [None]: the [Urcgc.Config] default *)
  rate : float;  (** Bernoulli submission probability per member per round *)
  cap : int;  (** global message cap; [max_int] for open-ended load *)
  fault : Net.Fault.spec;
  codec : bool;  (** mount [Medium.with_codec]: the only [Wire_codec] path *)
}

(* Over the codec boundary the int payloads encode as 8 fixed bytes, as in
   [Workload.Runner]. *)
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

let payload_size shape = if shape.codec then 8 else 64

(* Spans are recorded only while [on] is set: the traced run turns it on
   around setup, the timed window and reduce, and off for warm-up and
   drain. *)
let on = ref false

(* A medium running every send and multicast inside a [name] span, and with
   [~handlers:true] every receive handler inside a [member.handle] span. *)
let probed ~name ~handlers m =
  let module M = Urcgc.Medium in
  let attach node handler =
    if handlers then
      M.attach m node (fun body ->
          if !on then begin
            Probe.enter Probe.handle;
            handler body;
            Probe.exit ()
          end
          else handler body)
    else M.attach m node handler
  in
  M.make ~engine:(M.engine m) ~fault:(M.fault m)
    ~traffic:(fun () -> M.traffic m)
    ~attach
    ~send:(fun ~src ~dst body ->
      if !on then begin
        Probe.enter name;
        M.send m ~src ~dst body;
        Probe.exit ()
      end
      else M.send m ~src ~dst body)
    ~multicast:(fun ~src ~dsts body ->
      if !on then begin
        Probe.enter name;
        M.multicast m ~src ~dsts body;
        Probe.exit ()
      end
      else M.multicast m ~src ~dsts body)

(* Per-round samples of the causal structures (traced run only). *)
type samples = {
  mutable rounds : int;  (** member-rounds sampled *)
  mutable waiting_sum : int;
  mutable waiting_peak : int;
  mutable history_sum : int;
  mutable history_peak : int;
  mutable backlog_peak : int;
}

type t = {
  shape : shape;
  engine : Sim.Engine.t;
  net : int Urcgc.Wire.body Net.Netsim.t;
  cluster : int Urcgc.Cluster.t;
  rng : Sim.Rng.t;
  traced : bool;
  mutable injecting : bool;
  mutable produced : int;
  mutable last_round : int;  (** tick of the latest round event run *)
  mutable round_handlers : int;  (** handlers that fired inside a round part *)
  samples : samples;
}

let inject t =
  if t.injecting then begin
    let spanned = t.traced && !on in
    if spanned then Probe.enter Probe.inject;
    let size = payload_size t.shape in
    for i = 0 to t.shape.n - 1 do
      if t.produced < t.shape.cap && Sim.Rng.bool t.rng t.shape.rate then begin
        let node = Net.Node_id.of_int i in
        if Urcgc.Member.active (Urcgc.Cluster.member t.cluster node) then begin
          t.produced <- t.produced + 1;
          Urcgc.Cluster.submit ~size t.cluster node t.produced
        end
      end
    done;
    if spanned then Probe.exit ()
  end

let sample t =
  if !on then begin
    Probe.enter Probe.sample;
    let s = t.samples in
    List.iter
      (fun member ->
        if Urcgc.Member.active member then begin
          let w = Urcgc.Member.waiting_length member
          and h = Urcgc.Member.history_length member
          and b = Urcgc.Member.sap_backlog member in
          s.rounds <- s.rounds + 1;
          s.waiting_sum <- s.waiting_sum + w;
          s.history_sum <- s.history_sum + h;
          s.waiting_peak <- max s.waiting_peak w;
          s.history_peak <- max s.history_peak h;
          s.backlog_peak <- max s.backlog_peak b
        end)
      (Urcgc.Cluster.members t.cluster);
    Probe.exit ()
  end

(* Netsim + medium + cluster + start. *)
let build ~traced ~seed shape =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create shape.fault ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let medium = Urcgc.Medium.of_netsim net in
  let medium =
    match (traced, shape.codec) with
    | false, false -> medium
    | false, true -> Urcgc.Medium.with_codec int_codec medium
    | true, false -> probed ~name:Probe.send ~handlers:true medium
    | true, true ->
        (* Outer minus inner send time is the codec's. *)
        probed ~name:Probe.send ~handlers:true
          (Urcgc.Medium.with_codec int_codec
             (probed ~name:Probe.net_send ~handlers:false medium))
  in
  let config = Urcgc.Config.make ?k:shape.k ~n:shape.n () in
  let create () = Urcgc.Cluster.create_with_medium ~config ~medium () in
  let cluster =
    if traced && !on then Probe.span Probe.setup_cluster create else create ()
  in
  let t =
    {
      shape;
      engine;
      net;
      cluster;
      rng;
      traced;
      injecting = true;
      produced = 0;
      last_round = -(Sim.Ticks.per_rtd / 2);
      round_handlers = 0;
      samples =
        {
          rounds = 0;
          waiting_sum = 0;
          waiting_peak = 0;
          history_sum = 0;
          history_peak = 0;
          backlog_peak = 0;
        };
    }
  in
  Urcgc.Cluster.on_round cluster (fun ~round:_ -> inject t);
  if traced then Urcgc.Cluster.on_round cluster (fun ~round:_ -> sample t);
  Urcgc.Cluster.start cluster;
  t

let now t = Sim.Ticks.to_int (Sim.Engine.now t.engine)
let rtd = Sim.Ticks.per_rtd
let half = rtd / 2
let run_until t tick = Sim.Engine.run t.engine ~until:(Sim.Ticks.of_int tick)

(* Traced stepping: each round event runs alone inside a [round] span
   ([Engine.run ~until:tick]) and everything before it inside a [deliver]
   span ([~until:(tick - 1)]), which isolates round-hook time from the
   delivery loop. *)
let run_split t tick =
  let rec go () =
    let next = t.last_round + half in
    if next <= tick then begin
      if next > 0 then begin
        Probe.enter Probe.deliver;
        run_until t (next - 1);
        Probe.exit ()
      end;
      let handled = Probe.count.(Probe.handle) in
      Probe.enter Probe.round;
      run_until t next;
      Probe.exit ();
      t.round_handlers <-
        t.round_handlers + Probe.count.(Probe.handle) - handled;
      t.last_round <- next;
      go ()
    end
    else if now t < tick then begin
      Probe.enter Probe.deliver;
      run_until t tick;
      Probe.exit ()
    end
  in
  go ()

let advance t tick =
  if t.traced && !on then run_split t tick
  else begin
    run_until t tick;
    t.last_round <- tick / half * half
  end

(* Stop injecting, then run one subrun at a time until the group is
   quiescent; [false] if it is not within [cap] subruns.  Judging a run
   cut mid-flight would report spurious atomicity violations. *)
let drain t ~cap =
  t.injecting <- false;
  let rec go i =
    if Urcgc.Cluster.quiescent t.cluster then true
    else if i >= cap then false
    else begin
      advance t (now t + rtd);
      go (i + 1)
    end
  in
  go 0

(* Set-up of the campaign and explorer workloads, whose runs each build a
   fresh stack: the wall time of [setup_count] constructions in a row,
   median of [setup_batches] such batches.  One batch takes well under a
   millisecond, too short to time alone on a shared host. *)
let setup_count = 200
let setup_batches = 9

let batch_ns build =
  let once _ =
    let t0 = Probe.now_ns () in
    for i = 0 to setup_count - 1 do
      ignore (Sys.opaque_identity (build i))
    done;
    Probe.now_ns () - t0
  in
  let times = Array.init setup_batches once in
  Array.sort compare times;
  times.(setup_batches / 2)

(* The same constructions inside [setup] spans, for the traced run. *)
let traced_setup build =
  on := true;
  for i = 0 to setup_count - 1 do
    ignore (Sys.opaque_identity (Probe.span Probe.setup (fun () -> build i)))
  done;
  on := false

(* [Workload.Runner]'s loop: one rtd at a time until the message cap is
   reached and the group is quiescent, or the time cap. *)
let run_capped t ~max_rtd =
  let max_ticks = Sim.Ticks.to_int (Sim.Ticks.of_rtd max_rtd) in
  let rec go () =
    let tick = now t in
    if tick < max_ticks then begin
      advance t (min (tick + rtd) max_ticks);
      if not (t.produced >= t.shape.cap && Urcgc.Cluster.quiescent t.cluster)
      then go ()
    end
  in
  go ()

(* What a run is judged and compared by: [Workload.Runner.report]'s counts,
   delay summary and verdict. *)
type summary = {
  generated : int;
  delivered_remote : int;
  subruns : int;
  delay : Stats.Summary.t;  (** remote processing delay, rtd *)
  verdict : Workload.Checker.verdict;
  remote_ats : int array;  (** tick of every remote processing event *)
}

let is_remote { Urcgc.Cluster.node; msg; _ } =
  not (Net.Node_id.equal node (Causal.Mid.origin msg.Causal.Causal_msg.mid))

(* The reduction [Workload.Runner] performs: materialize the logs, derive
   the delay summary, run the checker.  Spanned when tracing. *)
let reduce t =
  let spanned f name = if t.traced && !on then Probe.span name f else f () in
  let generations, remote, delay =
    spanned
      (fun () ->
        let generations = Urcgc.Cluster.generations t.cluster in
        let sent_at =
          List.fold_left
            (fun acc { Urcgc.Cluster.mid; sent_at; _ } ->
              Causal.Mid.Map.add mid sent_at acc)
            Causal.Mid.Map.empty generations
        in
        let remote = List.filter is_remote (Urcgc.Cluster.deliveries t.cluster) in
        let delays =
          List.filter_map
            (fun { Urcgc.Cluster.msg; at; _ } ->
              match Causal.Mid.Map.find_opt msg.Causal.Causal_msg.mid sent_at with
              | None -> None
              | Some t0 -> Some (Sim.Ticks.to_rtd (Sim.Ticks.diff at t0)))
            remote
        in
        (generations, remote, Stats.Summary.of_list delays))
      Probe.materialize
  in
  let verdict =
    spanned (fun () -> Workload.Checker.check t.cluster) Probe.check
  in
  {
    generated = List.length generations;
    delivered_remote = List.length remote;
    subruns = Urcgc.Cluster.subrun t.cluster;
    delay;
    verdict;
    remote_ats =
      Array.of_list
        (List.map (fun d -> Sim.Ticks.to_int d.Urcgc.Cluster.at) remote);
  }

(* Remote processing events with a tick in [(lo, hi\]]. *)
let remote_between summary ~lo ~hi =
  Array.fold_left
    (fun acc at -> if at > lo && at <= hi then acc + 1 else acc)
    0 summary.remote_ats

(* The counts a traced run must reproduce exactly. *)
let same_run a b =
  a.generated = b.generated
  && a.delivered_remote = b.delivered_remote
  && a.subruns = b.subruns && a.delay = b.delay
  && Workload.Checker.ok a.verdict = Workload.Checker.ok b.verdict
  && List.length a.verdict.Workload.Checker.violations
     = List.length b.verdict.Workload.Checker.violations

let discarded t =
  List.fold_left
    (fun acc (_, mids, _) -> acc + List.length mids)
    0
    (Urcgc.Cluster.discards t.cluster)
