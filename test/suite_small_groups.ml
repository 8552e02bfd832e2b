(* Degenerate group sizes and flow-control hysteresis: the corners where
   vector-indexed protocols usually break. *)

let node n = Net.Node_id.of_int n

let run ?(n = 2) ?(k = 2) ?(rate = 0.6) ?(messages = 20) ?flow_threshold
    ?(fault = Net.Fault.reliable) ?(seed = 42) () =
  let config = Urcgc.Config.make ~k ?flow_threshold ~n () in
  let load = Workload.Load.make ~rate ~total_messages:messages () in
  let scenario =
    Workload.Scenario.make ~name:"small" ~fault ~seed ~max_rtd:120.0 ~config
      ~load ()
  in
  Workload.Runner.run scenario

let small_group_tests =
  [
    Alcotest.test_case "a singleton group talks to itself" `Quick (fun () ->
        let report = run ~n:1 ~k:1 ~messages:10 () in
        Alcotest.(check bool) "invariants" true
          (Workload.Checker.ok report.Workload.Runner.verdict);
        Alcotest.(check int) "generated all" 10 report.Workload.Runner.generated;
        (* Nothing is remote in a singleton group. *)
        Alcotest.(check int) "no remote deliveries" 0
          report.Workload.Runner.delivered_remote);
    Alcotest.test_case "a pair group works" `Quick (fun () ->
        let report = run ~n:2 () in
        Alcotest.(check bool) "invariants" true
          (Workload.Checker.ok report.Workload.Runner.verdict);
        Alcotest.(check int) "all cross-delivered" 20
          report.Workload.Runner.delivered_remote);
    Alcotest.test_case "a pair group fails safe after one crash" `Quick
      (fun () ->
        (* n = 2 tolerates t = (n-1)/2 = 0 crashes, so one crash is beyond
           budget and the survivor must NOT soldier on alone: after K
           unanswered attempts it expels the crashed peer, finds itself in
           a solo view, and departs [Partitioned] instead of
           self-coordinating forever (its own decisions are not evidence of
           another live process).  The departure is flagged as the liveness
           cost of the beyond-budget crash — but every safety clause holds,
           and nothing is processed after it leaves. *)
        let fault =
          Net.Fault.with_crashes
            [ (node 1, Sim.Ticks.of_int 150) ]
            Net.Fault.reliable
        in
        let report = run ~n:2 ~fault () in
        let v = report.Workload.Runner.verdict in
        Alcotest.(check bool) "safety holds" true
          (v.Workload.Checker.causal_ok && v.Workload.Checker.atomicity_ok
         && v.Workload.Checker.zombie_ok && v.Workload.Checker.views_ok);
        Alcotest.(check bool) "partition loss is flagged" false
          v.Workload.Checker.partition_ok;
        Alcotest.(check bool) "kept generating before departing" true
          (report.Workload.Runner.generated > 0);
        match report.Workload.Runner.departures with
        | [ d ] ->
            Alcotest.(check bool) "the survivor departed" true
              (Net.Node_id.equal d.Urcgc.Cluster.who (node 0));
            Alcotest.(check string) "with a solo view" "partitioned (solo view)"
              (Urcgc.Member.reason_to_string d.Urcgc.Cluster.why)
        | ds ->
            Alcotest.failf "expected exactly the survivor's departure, got %d"
              (List.length ds));
    Alcotest.test_case "n = 3 with omissions" `Quick (fun () ->
        let report =
          run ~n:3 ~fault:(Net.Fault.omission_every 60) ~messages:40 ()
        in
        Alcotest.(check bool) "invariants" true
          (Workload.Checker.ok report.Workload.Runner.verdict));
  ]

let flow_tests =
  [
    Alcotest.test_case "flow control resumes after the history is purged"
      `Quick (fun () ->
        (* Threshold 4 with a fast group: generation must block and unblock
           repeatedly, and still everything flows through. *)
        let report =
          run ~n:3 ~k:2 ~rate:1.0 ~messages:30 ~flow_threshold:(Some 4) ()
        in
        Alcotest.(check bool) "invariants" true
          (Workload.Checker.ok report.Workload.Runner.verdict);
        Alcotest.(check int) "everything eventually generated" 30
          report.Workload.Runner.generated;
        Alcotest.(check int) "everything delivered" 60
          report.Workload.Runner.delivered_remote;
        Alcotest.(check bool) "the bound held (with one subrun of slack)" true
          (report.Workload.Runner.history_peak <= 4 + 6));
    Alcotest.test_case "member flow flag toggles off below the threshold"
      `Quick (fun () ->
        let config = Urcgc.Config.make ~n:3 ~k:2 ~flow_threshold:(Some 2) () in
        let m : string Urcgc.Member.t =
          Urcgc.Member.create config (node 1)
        in
        let mid o s = Causal.Mid.make ~origin:(node o) ~seq:s in
        List.iter
          (fun s ->
            let data =
              Urcgc.Wire.Data
                (Causal.Causal_msg.make ~mid:(mid 0 s) ~deps:[]
                   ~payload_size:1 "x")
            in
            ignore
              (Urcgc.Member.collect (fun sink ->
                   Urcgc.Member.handle m sink data)))
          [ 1; 2 ];
        Urcgc.Member.submit m "blocked";
        ignore (Urcgc.Member.collect (Urcgc.Member.begin_subrun m ~subrun:0));
        Alcotest.(check bool) "blocked at threshold" true
          (Urcgc.Member.flow_blocked m);
        (* A full-group decision purges the history; the next round must
           unblock and send. *)
        let d0 = Urcgc.Decision.initial ~n:3 in
        let d =
          {
            d0 with
            Urcgc.Decision.subrun = 0;
            full_group = true;
            stable = [| 2; 0; 0 |];
          }
        in
        ignore
          (Urcgc.Member.collect (fun sink ->
               Urcgc.Member.handle m sink (Urcgc.Wire.Decision_pdu d)));
        let actions =
          Urcgc.Member.collect (Urcgc.Member.mid_subrun m ~subrun:0)
        in
        Alcotest.(check bool) "unblocked and sent" true
          (List.exists
             (function
               | Urcgc.Member.Broadcast (Urcgc.Wire.Data _) -> true
               | _ -> false)
             actions);
        Alcotest.(check bool) "flag cleared" false (Urcgc.Member.flow_blocked m));
  ]

let suite =
  [ ("urcgc.small_groups", small_group_tests); ("urcgc.flow", flow_tests) ]
