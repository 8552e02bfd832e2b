(* Tests for the urgc total-order companion algorithm: the pure sequencing
   coordinator and end-to-end total-order runs. *)

let node n = Net.Node_id.of_int n
let mid o s = Causal.Mid.make ~origin:(node o) ~seq:s

let request ?(unsequenced = []) ?(processed = 0) ?prev ~sender ~subrun n =
  {
    Urgc.Total_wire.sender = node sender;
    subrun;
    unsequenced;
    processed_upto = processed;
    prev_decision = Option.value prev ~default:(Urgc.Total_decision.initial ~n);
  }

let coordinator_tests =
  [
    Alcotest.test_case "assigns reported mids in deterministic order" `Quick
      (fun () ->
        let d =
          Urgc.Total_coordinator.compute ~n:3 ~k:2 ~subrun:0
            ~coordinator:(node 0)
            ~prev:(Urgc.Total_decision.initial ~n:3)
            ~requests:
              [
                request ~sender:0 ~subrun:0 ~unsequenced:[ mid 2 1; mid 0 1 ] 3;
                request ~sender:1 ~subrun:0 ~unsequenced:[ mid 1 1; mid 2 1 ] 3;
              ]
        in
        Alcotest.(check int) "3 assigned" 4 d.Urgc.Total_decision.next_seq;
        let mids =
          Array.to_list d.Urgc.Total_decision.assignments
          |> List.map (fun m -> Net.Node_id.to_int (Causal.Mid.origin m))
        in
        (* Deduplicated and in mid order. *)
        Alcotest.(check (list int)) "mid order" [ 0; 1; 2 ] mids);
    Alcotest.test_case "already-assigned mids are not reassigned" `Quick
      (fun () ->
        let prev =
          Urgc.Total_coordinator.compute ~n:3 ~k:2 ~subrun:0
            ~coordinator:(node 0)
            ~prev:(Urgc.Total_decision.initial ~n:3)
            ~requests:[ request ~sender:0 ~subrun:0 ~unsequenced:[ mid 2 1 ] 3 ]
        in
        let d =
          Urgc.Total_coordinator.compute ~n:3 ~k:2 ~subrun:1
            ~coordinator:(node 1) ~prev
            ~requests:[ request ~sender:1 ~subrun:1 ~unsequenced:[ mid 2 1 ] 3 ]
        in
        Alcotest.(check int) "still one binding" 2 d.Urgc.Total_decision.next_seq);
    Alcotest.test_case "stability trims the window on full coverage" `Quick
      (fun () ->
        let prev =
          Urgc.Total_coordinator.compute ~n:2 ~k:2 ~subrun:0
            ~coordinator:(node 0)
            ~prev:(Urgc.Total_decision.initial ~n:2)
            ~requests:
              [
                request ~sender:0 ~subrun:0
                  ~unsequenced:[ mid 0 1; mid 1 1; mid 0 2 ]
                  2;
                request ~sender:1 ~subrun:0 2;
              ]
        in
        Alcotest.(check int) "window 3" 3
          (Array.length prev.Urgc.Total_decision.assignments);
        let d =
          Urgc.Total_coordinator.compute ~n:2 ~k:2 ~subrun:1
            ~coordinator:(node 1) ~prev
            ~requests:
              [
                request ~sender:0 ~subrun:1 ~processed:2 2;
                request ~sender:1 ~subrun:1 ~processed:3 2;
              ]
        in
        Alcotest.(check int) "stable 2" 2 d.Urgc.Total_decision.stable_seq;
        Alcotest.(check int) "window trimmed" 1
          (Array.length d.Urgc.Total_decision.assignments);
        Alcotest.(check int) "head at 3" 3 d.Urgc.Total_decision.first_assigned;
        Alcotest.(check (option unit)) "seq 3 still resolvable" (Some ())
          (Option.map (fun _ -> ()) (Urgc.Total_decision.assignment d 3));
        Alcotest.(check (option unit)) "seq 2 dropped" None
          (Option.map (fun _ -> ()) (Urgc.Total_decision.assignment d 2)));
    Alcotest.test_case "silent process is declared crashed after K" `Quick
      (fun () ->
        let prev = ref (Urgc.Total_decision.initial ~n:3) in
        for s = 0 to 1 do
          prev :=
            Urgc.Total_coordinator.compute ~n:3 ~k:2 ~subrun:s
              ~coordinator:(node 0) ~prev:!prev
              ~requests:
                [ request ~sender:0 ~subrun:s 3; request ~sender:1 ~subrun:s 3 ]
        done;
        Alcotest.(check bool) "p2 out" false !prev.Urgc.Total_decision.alive.(2));
  ]

(* -- end-to-end --------------------------------------------------------- *)

let run_urgc ?(n = 6) ?(k = 3) ?(rate = 0.5) ?(messages = 50)
    ?(fault = Net.Fault.reliable) ?(seed = 42) ?(max_rtd = 120.0) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let cluster = Urgc.Cluster.create ~n ~k ~net () in
  let group = Urgc.Cluster.group cluster in
  let load = Workload.Load.make ~rate ~total_messages:messages () in
  Workload.Load.drive
    (Workload.Load.injector load ~rng group ~submit:(fun node id ->
         Urgc.Cluster.submit cluster node id))
    group
    ~start:(fun () -> Urgc.Cluster.start cluster)
    ~quiescent:(fun () -> Urgc.Cluster.quiescent cluster)
    ~max_rtd;
  (engine, cluster)

let crash_spec crashes =
  Net.Fault.with_crashes
    (List.map
       (fun (i, subrun) ->
         (node i, Sim.Ticks.of_int ((subrun * Sim.Ticks.per_rtd) + 1)))
       crashes)
    Net.Fault.reliable

let e2e_tests =
  [
    Alcotest.test_case "reliable run: total order everywhere" `Slow (fun () ->
        let _, cluster = run_urgc () in
        Alcotest.(check bool) "total order" true
          (Urgc.Cluster.total_order_ok cluster);
        Alcotest.(check int) "everything processed everywhere" (50 * 6)
          (List.length (Urgc.Cluster.deliveries cluster)));
    Alcotest.test_case "total order survives omissions" `Slow (fun () ->
        let _, cluster =
          run_urgc ~fault:(Net.Fault.omission_every 100) ~messages:60 ()
        in
        Alcotest.(check bool) "total order" true
          (Urgc.Cluster.total_order_ok cluster));
    Alcotest.test_case "total order survives a crash" `Slow (fun () ->
        let _, cluster = run_urgc ~fault:(crash_spec [ (2, 4) ]) () in
        Alcotest.(check bool) "total order" true
          (Urgc.Cluster.total_order_ok cluster);
        (* survivors agree on the same processed count *)
        let actives = Urgc.Cluster.active_members cluster in
        let counts =
          List.map
            (fun node ->
              Urgc.Member.processed_upto (Urgc.Cluster.member cluster node))
            actives
        in
        match counts with
        | first :: rest ->
            Alcotest.(check bool) "agree" true
              (List.for_all (fun c -> c = first) rest)
        | [] -> Alcotest.fail "no actives");
    Alcotest.test_case
      "total order costs service time: urgc D exceeds urcgc D" `Slow
      (fun () ->
        (* Same workload through both algorithms; the causal service
           processes at reception (~0.45 rtd) while the total-order service
           must wait for the sequencing decision (>= ~1 rtd). *)
        let _, cluster = run_urgc ~seed:7 () in
        let sent_at = Hashtbl.create 64 in
        List.iter
          (fun (mid, at) -> Hashtbl.replace sent_at mid at)
          (Urgc.Cluster.generations cluster);
        let delays =
          List.filter_map
            (fun { Urgc.Cluster.data; at; _ } ->
              Option.map
                (fun t0 -> Sim.Ticks.to_rtd (Sim.Ticks.diff at t0))
                (Hashtbl.find_opt sent_at data.Urgc.Total_wire.mid))
            (Urgc.Cluster.deliveries cluster)
        in
        let urgc_mean =
          List.fold_left ( +. ) 0.0 delays /. float_of_int (List.length delays)
        in
        let config = Urcgc.Config.make ~k:3 ~n:6 () in
        let load = Workload.Load.make ~rate:0.5 ~total_messages:50 () in
        let scenario =
          Workload.Scenario.make ~name:"urcgc-cmp" ~seed:7 ~max_rtd:120.0
            ~config ~load ()
        in
        let urcgc_report = Workload.Runner.run scenario in
        let urcgc_mean = Workload.Runner.mean_delay_rtd urcgc_report in
        Alcotest.(check bool) "urgc at least 1.5x slower service" true
          (urgc_mean > 1.5 *. urcgc_mean));
  ]

(* Random scenarios: the total-order clause must hold across seeds, fault
   mixes and group sizes. *)
let e2e_property =
  QCheck.Test.make ~name:"urgc total order holds on random scenarios"
    ~count:10
    QCheck.(triple (int_range 3 7) (int_range 1 1_000_000) (int_bound 1))
    (fun (n, seed, faulty) ->
      let fault =
        if faulty = 1 then
          Net.Fault.with_crashes
            [ (node (n - 1), Sim.Ticks.of_int ((4 * Sim.Ticks.per_rtd) + 1)) ]
            (Net.Fault.omission_every 200)
        else Net.Fault.reliable
      in
      let _, cluster = run_urgc ~n ~fault ~seed ~messages:30 () in
      Urgc.Cluster.total_order_ok cluster)

let suite =
  [
    ("urgc.coordinator", coordinator_tests);
    ("urgc.e2e", e2e_tests @ [ QCheck_alcotest.to_alcotest e2e_property ]);
  ]
