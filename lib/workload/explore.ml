(* Bounded schedule exploration: a controlled network under the unchanged
   protocol stack, with every nondeterministic decision routed through
   Sim.Explore.Ctx.  See explore.mli and docs/EXPLORE.md for the model. *)

type silence_mode = Window | Persistent

type config = {
  n : int;
  k : int;
  messages : int;
  window_subruns : int;
  horizon_subruns : int;
  crash_choices : bool;
  fixed_crashes : (int * int) list;
  omission_choices : int;
  silenced : int;
  silence_mode : silence_mode;
  with_oracle : bool;
}

(* Safety valve against same-round delivery cascades; exceeding it is
   reported as a violation. *)
let max_deliveries_per_round = 256

let validate c =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if c.n < 2 then fail "Explore: n must be at least 2 (got %d)" c.n;
  if c.k < 1 then fail "Explore: k must be positive (got %d)" c.k;
  if c.window_subruns < 1 then
    fail "Explore: window must be at least one subrun (got %d)"
      c.window_subruns;
  if c.horizon_subruns <= c.window_subruns then
    fail "Explore: horizon (%d subruns) must exceed the window (%d)"
      c.horizon_subruns c.window_subruns;
  if c.messages < 0 || c.messages > c.n * c.window_subruns then
    fail
      "Explore: the message program (%d messages) must fit the window (at \
       most n * window = %d)"
      c.messages
      (c.n * c.window_subruns);
  if c.silenced < 0 || c.silenced >= c.n then
    fail "Explore: silenced burst %d outside [0, n)" c.silenced;
  if c.omission_choices < 0 then
    fail "Explore: omission_choices must be non-negative (got %d)"
      c.omission_choices;
  List.iter
    (fun (node, round) ->
      if node < 0 || node >= c.n then
        fail "Explore: fixed crash of node %d outside the group" node;
      if round < 0 || round >= 2 * c.horizon_subruns then
        fail "Explore: fixed crash at round %d outside the horizon" round)
    c.fixed_crashes

let config ?(k = 2) ?messages ?(window_subruns = 1) ?horizon_subruns
    ?(crash_choices = false) ?(fixed_crashes = []) ?(omission_choices = 0)
    ?(silenced = 0) ?(silence_mode = Persistent) ?(with_oracle = true) ~n () =
  let messages = match messages with Some m -> m | None -> n in
  let horizon_subruns =
    match horizon_subruns with
    | Some h -> h
    | None -> window_subruns + (2 * k) + 4
  in
  let c =
    {
      n;
      k;
      messages;
      window_subruns;
      horizon_subruns;
      crash_choices;
      fixed_crashes;
      omission_choices;
      silenced;
      silence_mode;
      with_oracle;
    }
  in
  validate c;
  c

(* Lexicographically ordered [size]-subsets of [0, n), as sorted lists.
   The subset order is part of the schedule encoding, so it must never
   change. *)
let subsets ~n ~size =
  let rec build lo size =
    if size = 0 then [ [] ]
    else
      let rec from i acc =
        if i > n - size then List.rev acc
        else
          let tails = build (i + 1) (size - 1) in
          from (i + 1)
            (List.rev_append (List.map (fun t -> i :: t) tails) acc)
      in
      from lo []
  in
  Array.of_list (build 0 size)

let traffic_class kind =
  match kind with
  | Net.Traffic.Data -> Sim.Trace.Traffic_class.Data
  | Net.Traffic.Control -> Sim.Trace.Traffic_class.Control
  | Net.Traffic.Recovery -> Sim.Trace.Traffic_class.Recovery
  | Net.Traffic.Ack -> Sim.Trace.Traffic_class.Ack

(* One buffered packet of the controlled network.  [canon] is the global
   enqueue index: per-destination queues are FIFO in canon order, and the
   pruning rule compares canons to recognize out-of-order commuting pairs. *)
type pkt = {
  canon : int;
  src : int;
  dst : int;
  body : int Urcgc.Wire.body;
}

let describe_body body =
  match body with
  | Urcgc.Wire.Data m ->
      let mid = m.Causal.Causal_msg.mid in
      Printf.sprintf "d%d#%d"
        (Net.Node_id.to_int (Causal.Mid.origin mid))
        (Causal.Mid.seq mid)
  | Urcgc.Wire.Request r ->
      Printf.sprintf "req%d" (Net.Node_id.to_int r.Urcgc.Wire.sender)
  | Urcgc.Wire.Decision_pdu d -> Printf.sprintf "dec@%d" d.Urcgc.Decision.subrun
  | Urcgc.Wire.Recover_req _ -> "rreq"
  | Urcgc.Wire.Recover_reply _ -> "rrep"

(* Commuting data pair: different origins and no direct causal link either
   way.  Everything else (control PDUs, causally linked or same-origin
   data) must keep both orders. *)
let commutes a b =
  match (a.body, b.body) with
  | Urcgc.Wire.Data ma, Urcgc.Wire.Data mb ->
      let oa = Causal.Mid.origin ma.Causal.Causal_msg.mid
      and ob = Causal.Mid.origin mb.Causal.Causal_msg.mid in
      (not (Net.Node_id.equal oa ob))
      && (not (Causal.Causal_msg.depends_on ma mb.Causal.Causal_msg.mid))
      && not (Causal.Causal_msg.depends_on mb ma.Causal.Causal_msg.mid)
  | _ -> false

type run_result = {
  violations : string list;
  generated : int;
  delivered_remote : int;
  rounds : int;
  departures : (int * string) list;
  oracle_agrees : bool option;
  cascade_capped : bool;
}

let tick_of_round r = Sim.Ticks.mul Sim.Ticks.round r

let run_schedule c ctx =
  validate c;
  if !Sim.Prof.on then Sim.Prof.enter "schedule";
  let n = c.n in
  let window_rounds = 2 * c.window_subruns in
  (* -- upfront choices: crash timing, omission placement, silencing ---- *)
  let crashes =
    let chosen =
      if not c.crash_choices then []
      else
        let pick =
          Sim.Explore.Ctx.choose
            ~arity:(1 + (n * window_rounds))
            ~label:(fun () ->
              Printf.sprintf "crash (0 = none, else node*%d+round+1)"
                window_rounds)
            ctx
        in
        if pick = 0 then []
        else [ ((pick - 1) / window_rounds, (pick - 1) mod window_rounds) ]
    in
    chosen @ c.fixed_crashes
  in
  let omission_slot =
    if c.omission_choices = 0 then -1
    else
      Sim.Explore.Ctx.choose
        ~arity:(1 + c.omission_choices)
        ~label:(fun () -> "omission slot (0 = none, else copy index + 1)")
        ctx
      - 1
  in
  let silenced_sets =
    if c.silenced = 0 then [||]
    else
      let menu = subsets ~n ~size:c.silenced in
      Array.init c.window_subruns (fun subrun ->
          let pick =
            Sim.Explore.Ctx.choose ~arity:(Array.length menu)
              ~label:(fun () ->
                Printf.sprintf "silenced set for subrun %d" subrun)
              ctx
          in
          let set = Array.make n false in
          List.iter (fun i -> set.(i) <- true) menu.(pick);
          set)
  in
  (* -- the controlled network ------------------------------------------ *)
  let engine = Sim.Engine.create () in
  let fault =
    Net.Fault.create
      (Net.Fault.with_crashes
         (List.map
            (fun (node, round) ->
              (Net.Node_id.of_int node, tick_of_round round))
            crashes)
         Net.Fault.reliable)
      ~rng:(Sim.Rng.create ~seed:0)
  in
  let traffic = Net.Traffic.create () in
  let trace =
    if c.with_oracle then Sim.Trace.unbounded () else Sim.Trace.null
  in
  let handlers = Array.make n (fun (_ : int Urcgc.Wire.body) -> ()) in
  let queues = Array.make n [] in
  let pending = ref 0 in
  let canon = ref 0 in
  let copies = ref 0 in
  let silenced_now src =
    if c.silenced = 0 then false
    else
      let subrun =
        Sim.Ticks.to_int (Sim.Engine.now engine) / Sim.Ticks.per_rtd
      in
      match c.silence_mode with
      | Persistent -> silenced_sets.(min subrun (c.window_subruns - 1)).(src)
      | Window ->
          subrun < c.window_subruns && silenced_sets.(subrun).(src)
  in
  let emit_drop ~src ~dst ~kind stage =
    if Sim.Trace.enabled trace then
      Sim.Trace.emit trace
        ~time:(Sim.Engine.now engine)
        (Sim.Trace.Drop { src; dst; kind = traffic_class kind; stage })
  in
  let send ~src ~dst body =
    let kind = Urcgc.Wire.kind body and size = Urcgc.Wire.body_size body in
    Net.Traffic.record traffic ~kind ~size;
    let now = Sim.Engine.now engine in
    let si = Net.Node_id.to_int src and di = Net.Node_id.to_int dst in
    if Net.Fault.crashed fault ~now src || silenced_now si then
      emit_drop ~src:si ~dst:di ~kind Sim.Trace.On_send
    else begin
      let slot = !copies in
      incr copies;
      if slot = omission_slot then
        emit_drop ~src:si ~dst:di ~kind Sim.Trace.On_filter
      else begin
        let packet = { canon = !canon; src = si; dst = di; body } in
        incr canon;
        queues.(di) <- queues.(di) @ [ packet ];
        incr pending
      end
    end
  in
  let medium =
    Urcgc.Medium.make ~engine ~fault
      ~traffic:(fun () -> traffic)
      ~attach:(fun node handler ->
        handlers.(Net.Node_id.to_int node) <- handler)
      ~send
      ~multicast:(fun ~src ~dsts body ->
        Array.iter (fun dst -> send ~src ~dst body) dsts)
  in
  (* -- the protocol stack ---------------------------------------------- *)
  let cluster =
    Urcgc.Cluster.create_with_medium ~tracer:trace
      ~config:(Urcgc.Config.make ~k:c.k ~n ())
      ~medium ()
  in
  (* Fixed message program: message j at node (j mod n), subrun (j / n).
     Subrun-0 submissions happen before the clock starts; later ones after
     the preceding round completes. *)
  for j = 0 to min c.messages n - 1 do
    Urcgc.Cluster.submit cluster (Net.Node_id.of_int (j mod n)) (j + 1)
  done;
  Urcgc.Cluster.on_round cluster (fun ~round ->
      if round mod 2 = 1 then begin
        let subrun = (round + 1) / 2 in
        for j = 0 to c.messages - 1 do
          if j / n = subrun then
            Urcgc.Cluster.submit cluster (Net.Node_id.of_int (j mod n)) (j + 1)
        done
      end);
  (* -- drive rounds, draining deliveries in an explored order ---------- *)
  let cascade_capped = ref false in
  let deliver packet =
    decr pending;
    let now = Sim.Engine.now engine in
    if Net.Fault.crashed fault ~now (Net.Node_id.of_int packet.dst) then
      emit_drop ~src:packet.src ~dst:packet.dst
        ~kind:(Urcgc.Wire.kind packet.body)
        Sim.Trace.On_recv
    else handlers.(packet.dst) packet.body
  in
  let drain round =
    let in_window = round < window_rounds in
    let last = Array.make n None in
    let delivered = ref 0 in
    let rec next_dst di = if di >= n then None
      else if queues.(di) <> [] then Some di
      else next_dst (di + 1)
    in
    let rec loop () =
      match next_dst 0 with
      | None -> ()
      | Some di ->
          if !delivered > max_deliveries_per_round then begin
            (* Runaway same-round cascade: abandon the queued packets and
               report loudly rather than looping forever. *)
            cascade_capped := true;
            Array.iteri
              (fun i q -> pending := !pending - List.length q;
                queues.(i) <- [];
                ignore q)
              queues
          end
          else begin
            let arr = Array.of_list queues.(di) in
            let arity = Array.length arr in
            let dst_crashed =
              Net.Fault.crashed fault ~now:(Sim.Engine.now engine)
                (Net.Node_id.of_int di)
            in
            let pick =
              if arity = 1 || (not in_window) || dst_crashed then 0
              else
                Sim.Explore.Ctx.choose ~arity
                  ~allowed:(fun j ->
                    match last.(di) with
                    | Some prev
                      when commutes prev arr.(j)
                           && prev.canon > arr.(j).canon ->
                        false
                    | _ -> true)
                  ~label:(fun () ->
                    Printf.sprintf "deliver at p%d from {%s}" di
                      (String.concat " "
                         (List.map
                            (fun p -> describe_body p.body)
                            (Array.to_list arr))))
                  ctx
            in
            let packet = arr.(pick) in
            queues.(di) <-
              List.filteri (fun j _ -> j <> pick) (Array.to_list arr);
            last.(di) <- Some packet;
            incr delivered;
            deliver packet;
            loop ()
          end
    in
    loop ()
  in
  let last_crash_round =
    List.fold_left (fun acc (_, round) -> max acc round) (-1) crashes
  in
  let submissions_done_round =
    if c.messages = 0 then 0 else 2 * ((c.messages - 1) / n)
  in
  let total_rounds = 2 * c.horizon_subruns in
  Urcgc.Cluster.start cluster;
  let rounds = ref 0 in
  let stop = ref false in
  while (not !stop) && !rounds < total_rounds do
    let r = !rounds in
    if Sim.Trace.enabled trace then
      List.iter
        (fun (node, cr) ->
          if cr = r then
            Sim.Trace.emit trace ~time:(tick_of_round r)
              (Sim.Trace.Crash { node }))
        crashes;
    ignore (Sim.Engine.step engine);
    drain r;
    incr rounds;
    if
      !rounds >= window_rounds
      && !rounds > submissions_done_round
      && !rounds > last_crash_round
      && !pending = 0
      && Urcgc.Cluster.quiescent cluster
    then stop := true
  done;
  (* -- judge ----------------------------------------------------------- *)
  let deliveries = Urcgc.Cluster.deliveries cluster in
  let verdict = Checker.check_log cluster deliveries in
  let generated = List.length (Urcgc.Cluster.generations cluster) in
  let delivered_remote =
    List.length
      (List.filter
         (fun d ->
           not
             (Net.Node_id.equal d.Urcgc.Cluster.node
                (Causal.Mid.origin d.Urcgc.Cluster.msg.Causal.Causal_msg.mid)))
         deliveries)
  in
  let fault_free =
    crashes = [] && omission_slot < 0 && c.silenced = 0
  in
  let liveness = ref [] in
  let addl fmt = Printf.ksprintf (fun s -> liveness := s :: !liveness) fmt in
  if not (Urcgc.Cluster.quiescent cluster && !pending = 0) then
    addl "liveness: not quiescent at the horizon (%d subruns)"
      c.horizon_subruns;
  if fault_free && generated <> c.messages then
    addl "progress: %d of %d messages generated in a fault-free run"
      generated c.messages;
  if fault_free && delivered_remote <> generated * (n - 1) then
    addl
      "delivery: %d of %d remote processing events in a fault-free run"
      delivered_remote
      (generated * (n - 1));
  if !cascade_capped then
    addl "explore: same-round delivery cascade exceeded %d"
      max_deliveries_per_round;
  let oracle_agrees, oracle_violations =
    if not c.with_oracle then (None, [])
    else
      let analysis = Sim.Analysis.analyze ~n (Sim.Trace.records trace) in
      let agrees = Analyzer.agrees verdict analysis.Sim.Analysis.verdict in
      ( Some agrees,
        if agrees then []
        else [ "oracle: trace oracle disagrees with the live checker" ] )
  in
  let result =
    {
      violations =
        verdict.Checker.violations @ List.rev !liveness
        @ oracle_violations;
      generated;
      delivered_remote;
      rounds = !rounds;
      departures =
        List.map
          (fun { Urcgc.Cluster.who; why; _ } ->
            (Net.Node_id.to_int who, Urcgc.Member.reason_to_string why))
          (Urcgc.Cluster.departures cluster);
      oracle_agrees;
      cascade_capped = !cascade_capped;
    }
  in
  if !Sim.Prof.on then Sim.Prof.exit ();
  result

(* -- the driver -------------------------------------------------------- *)

type counterexample = { cx_schedule : int list; cx_violations : string list }

type report = {
  config : config;
  prune : bool;
  max_schedules : int;
  stats : Sim.Explore.stats;
  schedules_with_violations : int;
  distinct_violations : string list;
  counterexample : counterexample option;
  oracle_checked : int;
  oracle_disagreements : int;
}

let ok r =
  r.schedules_with_violations = 0 && not r.stats.Sim.Explore.truncated

module Strings = Set.Make (String)

let explore ?(prune = true) ?(max_schedules = 200_000) c =
  validate c;
  let with_violations = ref 0 in
  let distinct = ref Strings.empty in
  let counterexample = ref None in
  let oracle_checked = ref 0 in
  let oracle_disagreements = ref 0 in
  let stats =
    Sim.Prof.span "explore" @@ fun () ->
    let stats =
      Sim.Explore.explore ~prune ~max_schedules (run_schedule c)
      ~on_schedule:(fun ~schedule result ->
        if result.violations <> [] then begin
          incr with_violations;
          List.iter
            (fun v -> distinct := Strings.add v !distinct)
            result.violations;
          if !counterexample = None then
            counterexample :=
              Some
                { cx_schedule = schedule; cx_violations = result.violations }
        end;
        match result.oracle_agrees with
        | Some agrees ->
            incr oracle_checked;
            if not agrees then incr oracle_disagreements
        | None -> ())
    in
    (* Deterministic attribution: how much of the choice tree the DPOR
       pruning rule cut, next to the time the survivors cost. *)
    Sim.Prof.count ~by:stats.Sim.Explore.explored "schedules_explored";
    Sim.Prof.count ~by:stats.Sim.Explore.pruned "pruned_branches";
    stats
  in
  {
    config = c;
    prune;
    max_schedules;
    stats;
    schedules_with_violations = !with_violations;
    distinct_violations = Strings.elements !distinct;
    counterexample = !counterexample;
    oracle_checked = !oracle_checked;
    oracle_disagreements = !oracle_disagreements;
  }

let replay c ~schedule = Sim.Explore.replay (run_schedule c) ~schedule

let repro_command c ~schedule =
  let b = Buffer.create 128 in
  Buffer.add_string b "urcgc_sim explore";
  Printf.bprintf b " -n %d -K %d --messages %d --window %d --horizon %d" c.n
    c.k c.messages c.window_subruns c.horizon_subruns;
  if c.crash_choices then Buffer.add_string b " --crash-choices";
  List.iter
    (fun (node, round) -> Printf.bprintf b " --fixed-crash %d@%d" node round)
    c.fixed_crashes;
  if c.omission_choices > 0 then
    Printf.bprintf b " --omission-choices %d" c.omission_choices;
  if c.silenced > 0 then begin
    Printf.bprintf b " --silenced %d" c.silenced;
    match c.silence_mode with
    | Window -> Buffer.add_string b " --silence-mode window"
    | Persistent -> ()
  end;
  if not c.with_oracle then Buffer.add_string b " --no-oracle";
  Printf.bprintf b " --replay-schedule %s"
    (if schedule = [] then "-"
     else String.concat "," (List.map string_of_int schedule));
  Buffer.contents b

let of_campaign_spec ?(window_subruns = 2) (spec : Campaign.spec) =
  if
    spec.Campaign.send_omission > 0.
    || spec.Campaign.recv_omission > 0.
    || spec.Campaign.link_loss > 0.
  then None
  else
    let horizon =
      max
        (window_subruns + (2 * spec.Campaign.k) + 4)
        (1
        + List.fold_left
            (fun acc (_, subrun) -> max acc (subrun + 1))
            0 spec.Campaign.crashes)
    in
    Some
      {
        n = spec.Campaign.n;
        k = spec.Campaign.k;
        messages = min spec.Campaign.messages (spec.Campaign.n * window_subruns);
        window_subruns;
        horizon_subruns = horizon;
        crash_choices = false;
        (* A campaign crash at subrun s lands at tick s * per_rtd + 1, i.e.
           just after round 2s fired: round 2s + 1 in explorer terms. *)
        fixed_crashes =
          List.map
            (fun (node, subrun) -> (node, (2 * subrun) + 1))
            spec.Campaign.crashes;
        omission_choices = 0;
        silenced = spec.Campaign.silenced_per_subrun;
        (* Campaign bursts keep applying for the whole run; shrunk
           reproducers are short sustained bursts, so only the persistent
           adversary rediscovers them. *)
        silence_mode = Persistent;
        with_oracle = false;
      }

(* -- deterministic JSON ------------------------------------------------ *)

let bool_str v = if v then "true" else "false"

let to_json r =
  let c = r.config in
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"explore\":{\"n\":%d,\"k\":%d,\"messages\":%d,\"window_subruns\":%d,\
     \"horizon_subruns\":%d,\"crash_choices\":%s,\"fixed_crashes\":[%s],\
     \"omission_choices\":%d,\"silenced\":%d"
    c.n c.k c.messages c.window_subruns c.horizon_subruns
    (bool_str c.crash_choices)
    (String.concat ","
       (List.map
          (fun (node, round) -> Printf.sprintf "[%d,%d]" node round)
          c.fixed_crashes))
    c.omission_choices c.silenced;
  (* Emitted only when silencing is on, so silenced-free pinned reports
     keep their exact bytes from before the knob existed. *)
  if c.silenced > 0 then
    Printf.bprintf b ",\"silence_mode\":\"%s\""
      (match c.silence_mode with
      | Window -> "window"
      | Persistent -> "persistent");
  Printf.bprintf b
    ",\"max_deliveries_per_round\":%d,\"with_oracle\":%s,\"prune\":%s,\
     \"max_schedules\":%d}"
    max_deliveries_per_round (bool_str c.with_oracle) (bool_str r.prune)
    r.max_schedules;
  let s = r.stats in
  Printf.bprintf b
    ",\"space\":{\"total\":%d,\"explored\":%d,\"pruned\":%d,\"max_depth\":%d,\
     \"truncated\":%s}"
    s.Sim.Explore.total s.Sim.Explore.explored s.Sim.Explore.pruned
    s.Sim.Explore.max_depth
    (bool_str s.Sim.Explore.truncated);
  Printf.bprintf b
    ",\"verdict\":{\"ok\":%s,\"schedules_with_violations\":%d,\
     \"distinct_violations\":"
    (bool_str (ok r))
    r.schedules_with_violations;
  Sim.Json.buf_string_list b r.distinct_violations;
  Buffer.add_char b '}';
  Printf.bprintf b ",\"oracle\":{\"checked\":%d,\"disagreements\":%d}"
    r.oracle_checked r.oracle_disagreements;
  (match r.counterexample with
  | None -> ()
  | Some cx ->
      Printf.bprintf b
        ",\"counterexample\":{\"schedule\":[%s],\"violations\":"
        (String.concat "," (List.map string_of_int cx.cx_schedule));
      Sim.Json.buf_string_list b cx.cx_violations;
      Buffer.add_string b ",\"repro\":";
      Sim.Json.buf_string b (repro_command c ~schedule:cx.cx_schedule);
      Buffer.add_char b '}');
  Buffer.add_char b '}';
  Buffer.contents b

let pp_report ppf r =
  let s = r.stats in
  Format.fprintf ppf
    "@[<v>explore n=%d k=%d messages=%d window=%d horizon=%d@,\
     schedules: %d explored, %d pruned branches, %d total%s (max depth %d)@,\
     verdict: %s@]"
    r.config.n r.config.k r.config.messages r.config.window_subruns
    r.config.horizon_subruns s.Sim.Explore.explored s.Sim.Explore.pruned
    s.Sim.Explore.total
    (if s.Sim.Explore.truncated then " [truncated]" else "")
    s.Sim.Explore.max_depth
    (if r.schedules_with_violations > 0 then
       Printf.sprintf "%d schedules with violations: %s"
         r.schedules_with_violations
         (String.concat "; " r.distinct_violations)
     else if s.Sim.Explore.truncated then
       "every explored schedule satisfies all clauses (search truncated)"
     else "every explored schedule satisfies all clauses");
  match r.counterexample with
  | None -> ()
  | Some cx ->
      Format.fprintf ppf "@,counterexample: %s"
        (repro_command r.config ~schedule:cx.cx_schedule)
