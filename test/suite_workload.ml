(* Tests for the workload layer: load model, scenarios, the invariant
   checker's ability to actually detect violations, and runner plumbing. *)

let node n = Net.Node_id.of_int n

let load_tests =
  [
    Alcotest.test_case "defaults" `Quick (fun () ->
        let l = Workload.Load.make ~rate:0.5 () in
        Alcotest.(check (option int)) "no cap" None l.Workload.Load.total_messages;
        Alcotest.(check int) "payload" 64 l.Workload.Load.payload_size);
    Alcotest.test_case "rate validation" `Quick (fun () ->
        Alcotest.check_raises "over 1"
          (Invalid_argument "Load.make: rate must be in [0,1]") (fun () ->
            ignore (Workload.Load.make ~rate:1.5 ()));
        Alcotest.check_raises "negative"
          (Invalid_argument "Load.make: rate must be in [0,1]") (fun () ->
            ignore (Workload.Load.make ~rate:(-0.1) ())));
  ]

let scenario_tests =
  [
    Alcotest.test_case "crash_at_subrun adds a fail-stop just into the subrun"
      `Quick (fun () ->
        let config = Urcgc.Config.make ~n:4 () in
        let load = Workload.Load.make ~rate:0.5 () in
        let s = Workload.Scenario.make ~config ~load () in
        let s = Workload.Scenario.crash_at_subrun s (node 2) ~subrun:5 in
        match s.Workload.Scenario.fault.Net.Fault.crashes with
        | [ (who, at) ] ->
            Alcotest.(check int) "node" 2 (Net.Node_id.to_int who);
            Alcotest.(check int) "time" 501 (Sim.Ticks.to_int at)
        | _ -> Alcotest.fail "expected one crash");
    Alcotest.test_case "validation" `Quick (fun () ->
        let config = Urcgc.Config.make ~n:4 () in
        let load = Workload.Load.make ~rate:0.5 () in
        Alcotest.check_raises "max_rtd"
          (Invalid_argument "Scenario.make: max_rtd must be positive")
          (fun () ->
            ignore (Workload.Scenario.make ~max_rtd:0.0 ~config ~load ())));
  ]

(* The checker must detect violations, not just bless good runs.  We verify
   it against hand-built delivery logs by replaying through its own replay
   logic via a real cluster whose records we cannot forge — so instead we
   test the primitive it is built on. *)
let checker_tests =
  [
    Alcotest.test_case "clean run passes all checks" `Quick (fun () ->
        let config = Urcgc.Config.make ~n:4 ~k:2 () in
        let load = Workload.Load.make ~rate:0.5 ~total_messages:20 () in
        let scenario =
          Workload.Scenario.make ~name:"clean" ~config ~load ~seed:3 ()
        in
        let report = Workload.Runner.run scenario in
        Alcotest.(check bool) "ok" true
          (Workload.Checker.ok report.Workload.Runner.verdict));
    Alcotest.test_case "verdict pretty-prints" `Quick (fun () ->
        let v =
          {
            Workload.Checker.causal_ok = false;
            atomicity_ok = true;
            zombie_ok = true;
            views_ok = true;
            partition_ok = true;
            violations = [ "synthetic violation" ];
          }
        in
        let out = Format.asprintf "%a" Workload.Checker.pp v in
        Alcotest.(check bool) "mentions it" true
          (Astring_contains.contains out "synthetic violation");
        Alcotest.(check bool) "not ok" false (Workload.Checker.ok v));
  ]

(* The shared causal-order and atomicity clauses on hand-built CBCAST and
   Psync logs, mapped into the shared shape by the runners' own label
   functions: every pinned baseline run is clean, so only these logs show
   that the clauses judge a baseline's log at all. *)
let cb sender vt =
  {
    Cbcast.Cb_wire.sender = node sender;
    view_id = 0;
    vt = Cbcast.Vclock.of_array vt;
    payload = ();
    payload_size = 0;
  }

let ps sender seq preds =
  let mid (sender, seq) = { Psync.Context_graph.sender = node sender; seq } in
  {
    Psync.Context_graph.mid = mid (sender, seq);
    preds = List.map mid preds;
    payload = ();
    payload_size = 0;
  }

(* [(node, msg)] in log order, one tick apart. *)
let cb_log events =
  List.mapi
    (fun i (at_node, data) ->
      Workload.Runner_cbcast.processing
        { Cbcast.Cluster.node = node at_node; data; at = Sim.Ticks.of_int i })
    events

let ps_log events =
  List.mapi
    (fun i (at_node, msg) ->
      Workload.Runner_psync.processing
        { Psync.Cluster.node = node at_node; msg; at = Sim.Ticks.of_int i })
    events

let causal log =
  let violations = ref [] in
  let ok = Workload.Checker.check_causal ~n:3 log ~violations in
  (ok, List.rev !violations)

let atomic survivors log =
  let violations = ref [] in
  let ok =
    Workload.Checker.check_atomicity ~survivors:(List.map node survivors) log
      ~violations
  in
  (ok, List.rev !violations)

let flagged what (ok, violations) =
  Alcotest.(check bool) (what ^ ": flagged") false ok;
  Alcotest.(check int) (what ^ ": one violation") 1 (List.length violations)

let mentions what needle (_, violations) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: names %s" what needle)
    true
    (List.exists (fun v -> Astring_contains.contains v needle) violations)

(* p0 sends m1 and then m3; p1 sends m2 after processing m1. *)
let m1 = cb 0 [| 1; 0; 0 |]
let m2 = cb 1 [| 1; 1; 0 |]
let m3 = cb 0 [| 2; 0; 0 |]

(* p0 sends a; p1 follows it with b; p0 follows b with c. *)
let a = ps 0 1 []
let b = ps 1 1 [ (0, 1) ]
let c = ps 0 2 [ (1, 1) ]

let judge_tests =
  [
    Alcotest.test_case "a CBCAST label is its vector's other entries" `Quick
      (fun () ->
        match cb_log [ (2, cb 1 [| 3; 2; 0 |]) ] with
        | [ { Workload.Run_log.msg; _ } ] ->
            Alcotest.(check string) "mid and deps" "p1#2<-[p0#3]"
              (Format.asprintf "%a" Causal.Causal_msg.pp msg)
        | _ -> Alcotest.fail "expected one event");
    Alcotest.test_case "clean CBCAST and Psync logs pass" `Quick (fun () ->
        let cbcast =
          cb_log [ (1, m1); (1, m2); (2, m1); (2, m2); (2, m3); (1, m3) ]
        in
        Alcotest.(check (pair bool (list string))) "cbcast causal" (true, [])
          (causal cbcast);
        Alcotest.(check (pair bool (list string))) "cbcast atomic" (true, [])
          (atomic [ 1; 2 ] cbcast);
        Alcotest.(check (pair bool (list string))) "psync causal" (true, [])
          (causal (ps_log [ (2, a); (2, b); (2, c); (1, a); (1, b); (1, c) ])));
    Alcotest.test_case "CBCAST: processing before a VT predecessor is flagged"
      `Quick (fun () ->
        let verdict = causal (cb_log [ (2, m2); (2, m1) ]) in
        flagged "m2 before m1" verdict;
        mentions "m2 before m1" "missing p0#1" verdict);
    Alcotest.test_case "CBCAST: a FIFO gap is flagged" `Quick (fun () ->
        let verdict = causal (cb_log [ (2, m3) ]) in
        flagged "m3 without m1" verdict;
        mentions "m3 without m1" "p2 processed p0#2" verdict;
        mentions "m3 without m1" "missing p0#1" verdict);
    Alcotest.test_case "CBCAST: a duplicate is flagged" `Quick (fun () ->
        let verdict = causal (cb_log [ (2, m1); (2, m2); (2, m1) ]) in
        flagged "m1 twice" verdict;
        mentions "m1 twice" "p2 processed p0#1" verdict);
    Alcotest.test_case "Psync: a missing predecessor is flagged" `Quick
      (fun () ->
        let verdict = causal (ps_log [ (2, b); (2, a) ]) in
        flagged "b before a" verdict;
        mentions "b before a" "missing p0#1" verdict);
    Alcotest.test_case "Psync: a duplicate is flagged" `Quick (fun () ->
        let verdict = causal (ps_log [ (2, a); (2, b); (2, a) ]) in
        flagged "a twice" verdict;
        mentions "a twice" "p2 processed p0#1" verdict);
    Alcotest.test_case "survivors with different processed sets are flagged"
      `Quick (fun () ->
        (* p0 is no survivor: what it processed does not count. *)
        let log = cb_log [ (1, m1); (2, m1); (1, m3); (0, m2) ] in
        let verdict = atomic [ 1; 2 ] log in
        flagged "p2 lacks m3" verdict;
        mentions "p2 lacks m3" "1 messages only at p1" verdict;
        Alcotest.(check bool) "p1 alone agrees with itself" true
          (fst (atomic [ 1 ] log)));
  ]

let runner_tests =
  [
    Alcotest.test_case "senders restriction is honored" `Slow (fun () ->
        let config = Urcgc.Config.make ~n:5 ~k:2 () in
        let load =
          Workload.Load.make ~rate:1.0 ~total_messages:20
            ~senders:[ node 1 ] ()
        in
        let scenario =
          Workload.Scenario.make ~name:"single-sender" ~config ~load ~seed:5 ()
        in
        let report = Workload.Runner.run scenario in
        Alcotest.(check bool) "ok" true
          (Workload.Checker.ok report.Workload.Runner.verdict);
        Alcotest.(check int) "only 20" 20 report.Workload.Runner.generated;
        (* every message processed by the 4 other members *)
        Alcotest.(check int) "80 remote" 80
          report.Workload.Runner.delivered_remote);
    Alcotest.test_case "own-chain deps maximize concurrency" `Slow (fun () ->
        let config = Urcgc.Config.make ~n:5 ~k:2 () in
        let load =
          Workload.Load.make ~rate:0.8 ~total_messages:40
            ~deps_mode:Workload.Load.Own_chain ()
        in
        let scenario =
          Workload.Scenario.make ~name:"own-chain" ~config ~load ~seed:5 ()
        in
        let report = Workload.Runner.run scenario in
        Alcotest.(check bool) "ok" true
          (Workload.Checker.ok report.Workload.Runner.verdict));
    Alcotest.test_case "random frontier deps stay valid" `Slow (fun () ->
        let config = Urcgc.Config.make ~n:5 ~k:2 () in
        let load =
          Workload.Load.make ~rate:0.8 ~total_messages:40
            ~deps_mode:(Workload.Load.Random_frontier 0.5) ()
        in
        let scenario =
          Workload.Scenario.make ~name:"random-deps" ~config ~load ~seed:6 ()
        in
        let report = Workload.Runner.run scenario in
        Alcotest.(check bool) "ok" true
          (Workload.Checker.ok report.Workload.Runner.verdict));
    Alcotest.test_case "history series is sampled every round" `Slow (fun () ->
        let config = Urcgc.Config.make ~n:4 ~k:2 () in
        let load = Workload.Load.make ~rate:0.5 ~total_messages:10 () in
        let scenario =
          Workload.Scenario.make ~name:"series" ~config ~load ~seed:7 ()
        in
        let report = Workload.Runner.run scenario in
        Alcotest.(check bool) "nonempty" true
          (List.length report.Workload.Runner.history_series > 0);
        let rounds = List.map fst report.Workload.Runner.history_series in
        Alcotest.(check (list int)) "consecutive rounds"
          (List.init (List.length rounds) Fun.id)
          rounds);
  ]

let suite =
  [
    ("workload.load", load_tests);
    ("workload.scenario", scenario_tests);
    ("workload.checker", checker_tests);
    ("workload.judge", judge_tests);
    ("workload.runner", runner_tests);
  ]
