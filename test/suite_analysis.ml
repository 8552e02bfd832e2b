(* The offline trace analyzer: strict JSONL parsing (round-trip against the
   golden fixture, schema rejections), the trace-level invariant oracle on
   hand-built violating histories, truncation tolerance, deterministic
   exports, and the cross-validation property: on randomized campaign runs —
   fault-injected and over-budget included — the oracle's verdict must agree
   with the live checker's, run by run. *)

let at n = Sim.Ticks.of_int n
let r t event = { Sim.Trace.time = at t; event }

let data ~origin ~seq ~deps =
  Sim.Trace.Data { origin; seq; deps; bytes = 8 }

let bcast t ~src ~origin ~seq ~deps =
  r t (Sim.Trace.Broadcast { src; dsts = 3; pdu = data ~origin ~seq ~deps })

let deliver t node (origin, seq) =
  r t (Sim.Trace.Deliver { node; mid = { Sim.Trace.origin; seq } })

let check_verdict ~name expected (v : Sim.Analysis.verdict) =
  let causal, amo, atomicity, zombie = expected in
  Alcotest.(check bool) (name ^ ": causal") causal v.Sim.Analysis.causal_ok;
  Alcotest.(check bool)
    (name ^ ": at-most-once") amo v.Sim.Analysis.at_most_once_ok;
  Alcotest.(check bool)
    (name ^ ": atomicity") atomicity v.Sim.Analysis.atomicity_ok;
  Alcotest.(check bool) (name ^ ": zombie") zombie v.Sim.Analysis.zombie_ok

let analyze ?n records = Sim.Analysis.analyze ?n ~complete:true records

let contains = Astring_contains.contains

(* Two messages, both processed everywhere: the baseline every violation
   test below is a one-event mutation of. *)
let clean_history =
  [
    bcast 10 ~src:0 ~origin:0 ~seq:1 ~deps:0;
    deliver 10 0 (0, 1);
    bcast 12 ~src:1 ~origin:1 ~seq:1 ~deps:1;
    deliver 12 1 (1, 1);
    deliver 20 1 (0, 1);
    deliver 22 0 (1, 1);
  ]

let oracle_tests =
  [
    Alcotest.test_case "clean history passes every check" `Quick (fun () ->
        let a = analyze ~n:2 clean_history in
        check_verdict ~name:"clean" (true, true, true, true)
          a.Sim.Analysis.verdict;
        Alcotest.(check (list string))
          "no violations" [] a.Sim.Analysis.verdict.Sim.Analysis.violations);
    Alcotest.test_case "duplicate processing violates at-most-once" `Quick
      (fun () ->
        let a =
          analyze ~n:2 (clean_history @ [ deliver 30 1 (0, 1) ])
        in
        check_verdict ~name:"dup" (true, false, true, true)
          a.Sim.Analysis.verdict;
        Alcotest.(check bool)
          "names the event" true
          (List.exists
             (fun v -> contains v "(0,1)")
             a.Sim.Analysis.verdict.Sim.Analysis.violations));
    Alcotest.test_case "a gap in an origin chain violates causal order" `Quick
      (fun () ->
        let a =
          analyze ~n:2
            [
              bcast 10 ~src:0 ~origin:0 ~seq:1 ~deps:0;
              deliver 10 0 (0, 1);
              bcast 12 ~src:0 ~origin:0 ~seq:2 ~deps:1;
              deliver 12 0 (0, 2);
              bcast 14 ~src:0 ~origin:0 ~seq:3 ~deps:1;
              deliver 14 0 (0, 3);
              (* Node 1 starts the chain correctly, then skips seq 2. *)
              deliver 20 1 (0, 1);
              deliver 21 1 (0, 3);
            ]
        in
        check_verdict ~name:"gap" (false, true, false, true)
          a.Sim.Analysis.verdict;
        Alcotest.(check bool)
          "says out of order" true
          (List.exists
             (fun v -> contains v "out of order")
             a.Sim.Analysis.verdict.Sim.Analysis.violations));
    Alcotest.test_case
      "processing ahead of a frontier dependency violates causal order" `Quick
      (fun () ->
        (* (1,1) is labelled with the full frontier, which includes (0,1);
           node 2 processes (1,1) first.  Chain contiguity alone cannot see
           this — only the vector check can. *)
        let a =
          analyze ~n:3
            [
              bcast 10 ~src:0 ~origin:0 ~seq:1 ~deps:0;
              deliver 10 0 (0, 1);
              deliver 11 1 (0, 1);
              bcast 12 ~src:1 ~origin:1 ~seq:1 ~deps:1;
              deliver 12 1 (1, 1);
              deliver 20 2 (1, 1);
              deliver 21 2 (0, 1);
              deliver 25 0 (1, 1);
            ]
        in
        check_verdict ~name:"frontier" (false, true, true, true)
          a.Sim.Analysis.verdict;
        Alcotest.(check bool)
          "names the predecessor" true
          (List.exists
             (fun v -> contains v "causal predecessor (0,1)")
             a.Sim.Analysis.verdict.Sim.Analysis.violations));
    Alcotest.test_case "survivors with different sets violate atomicity" `Quick
      (fun () ->
        let a =
          analyze ~n:2
            (clean_history
            @ [
                bcast 30 ~src:0 ~origin:0 ~seq:2 ~deps:2;
                deliver 30 0 (0, 2);
                (* never processed at node 1 *)
              ])
        in
        check_verdict ~name:"atomicity" (true, true, false, true)
          a.Sim.Analysis.verdict);
    Alcotest.test_case "a crashed process is exempt from atomicity" `Quick
      (fun () ->
        let a =
          analyze ~n:2
            (clean_history
            @ [
                bcast 30 ~src:0 ~origin:0 ~seq:2 ~deps:2;
                deliver 30 0 (0, 2);
                r 40 (Sim.Trace.Crash { node = 1 });
              ])
        in
        check_verdict ~name:"crash-exempt" (true, true, true, true)
          a.Sim.Analysis.verdict;
        Alcotest.(check (list int)) "crashed" [ 1 ] a.Sim.Analysis.crashed);
    Alcotest.test_case "a survivor processing a discarded message is a zombie"
      `Quick (fun () ->
        let a =
          analyze ~n:2
            (clean_history
            @ [
                r 30
                  (Sim.Trace.Wait_discard
                     { node = 0; mids = [ { Sim.Trace.origin = 1; seq = 1 } ] });
              ])
        in
        (* Both survivors processed (1,1), which agreement later discarded. *)
        check_verdict ~name:"zombie" (true, true, true, false)
          a.Sim.Analysis.verdict);
    Alcotest.test_case "group size is inferred from the highest index" `Quick
      (fun () ->
        let a = Sim.Analysis.analyze ~complete:true clean_history in
        Alcotest.(check int) "n" 2 a.Sim.Analysis.nodes;
        let b = Sim.Analysis.analyze ~n:5 ~complete:true clean_history in
        Alcotest.(check int) "explicit n wins" 5 b.Sim.Analysis.nodes;
        (* The three silent members never processed anything. *)
        Alcotest.(check bool)
          "silent members break atomicity" false
          b.Sim.Analysis.verdict.Sim.Analysis.atomicity_ok);
  ]

let truncation_tests =
  [
    Alcotest.test_case "a suffix window reports coverage, not violations"
      `Quick (fun () ->
        (* Mid-chain deliveries with no broadcast in sight: a ring that
           dropped the prefix.  Autodetection must flag it and the oracle
           must not invent chain-gap or atomicity violations. *)
        let records =
          [
            deliver 500 0 (0, 7);
            deliver 501 1 (0, 7);
            deliver 510 0 (0, 8);
          ]
        in
        let a = Sim.Analysis.analyze ~n:2 records in
        Alcotest.(check bool)
          "detected as truncated" false a.Sim.Analysis.coverage.Sim.Analysis.complete;
        check_verdict ~name:"window" (true, true, true, true)
          a.Sim.Analysis.verdict;
        Alcotest.(check bool)
          "atomicity skipped" true
          (List.exists
             (fun s -> contains s "atomicity")
             a.Sim.Analysis.verdict.Sim.Analysis.skipped);
        Alcotest.(check int)
          "pre-window mids counted" 2
          a.Sim.Analysis.coverage.Sim.Analysis.pre_window_mids;
        (* A real gap inside the window is still a violation. *)
        let b = Sim.Analysis.analyze ~n:2 (records @ [ deliver 520 0 (0, 11) ]) in
        Alcotest.(check bool)
          "in-window gap still caught" false
          b.Sim.Analysis.verdict.Sim.Analysis.causal_ok);
    Alcotest.test_case "a complete trace is autodetected" `Quick (fun () ->
        let lines = Suite_trace.trace_jsonl (Suite_trace.golden_scenario ()) in
        match Sim.Analysis.parse_jsonl lines with
        | Error msg -> Alcotest.fail msg
        | Ok (records, _) ->
            let a = Sim.Analysis.analyze records in
            Alcotest.(check bool)
              "complete" true a.Sim.Analysis.coverage.Sim.Analysis.complete;
            Alcotest.(check int)
              "no pre-window mids" 0
              a.Sim.Analysis.coverage.Sim.Analysis.pre_window_mids);
  ]

let parser_tests =
  [
    Alcotest.test_case "golden JSONL round-trips through the parser" `Quick
      (fun () ->
        List.iter
          (fun line ->
            match Sim.Analysis.parse_line line with
            | Error msg -> Alcotest.failf "%s: %s" line msg
            | Ok record ->
                Alcotest.(check string)
                  "re-serializes byte-identically" line
                  (Sim.Trace.json_of_record record))
          Suite_trace.golden_lines);
    Alcotest.test_case "schema violations are rejected" `Quick (fun () ->
        let rejects reason line =
          match Sim.Analysis.parse_line line with
          | Ok _ -> Alcotest.failf "accepted %s: %s" reason line
          | Error _ -> ()
        in
        rejects "unknown event" {|{"t":1,"ev":"teleport","node":1}|};
        rejects "unknown pdu kind"
          {|{"t":1,"ev":"recv","node":0,"pdu":{"kind":"gossip","origin":0}}|};
        rejects "unknown drop kind"
          {|{"t":1,"ev":"drop","src":0,"dst":1,"kind":"magic","stage":"link"}|};
        rejects "unknown drop stage"
          {|{"t":1,"ev":"drop","src":0,"dst":1,"kind":"data","stage":"wire"}|};
        rejects "extra field" {|{"t":1,"ev":"crash","node":2,"extra":1}|};
        rejects "missing field" {|{"t":1,"ev":"deliver","node":1,"origin":2}|};
        rejects "reordered fields"
          {|{"t":1,"ev":"deliver","origin":2,"node":1,"seq":3}|};
        rejects "negative index" {|{"t":1,"ev":"crash","node":-2}|};
        rejects "float tick" {|{"t":1.5,"ev":"crash","node":2}|};
        rejects "trailing garbage" {|{"t":1,"ev":"crash","node":2} extra|};
        rejects "not an object" {|[1,2,3]|};
        rejects "bare metrics is not an event" {|{"metrics":{}}|});
    Alcotest.test_case "positioned errors carry the line number" `Quick
      (fun () ->
        match
          Sim.Analysis.parse_jsonl
            [ {|{"t":0,"ev":"rotate","subrun":0,"coordinator":0}|}; "{oops" ]
        with
        | Ok _ -> Alcotest.fail "accepted malformed line"
        | Error msg ->
            Alcotest.(check bool) "line 2 named" true (contains msg "line 2"));
    Alcotest.test_case "a trailing metrics line is returned verbatim" `Quick
      (fun () ->
        let metrics = {|{"metrics":{"counters":{},"gauges":{},"histograms":{}}}|} in
        match
          Sim.Analysis.parse_jsonl
            [ {|{"t":0,"ev":"rotate","subrun":0,"coordinator":0}|}; metrics ]
        with
        | Error msg -> Alcotest.fail msg
        | Ok (records, metrics_json) ->
            Alcotest.(check int) "one record" 1 (List.length records);
            Alcotest.(check (option string))
              "metrics verbatim" (Some metrics) metrics_json);
    Alcotest.test_case "events after the metrics line are rejected" `Quick
      (fun () ->
        match
          Sim.Analysis.parse_jsonl
            [
              {|{"metrics":{}}|};
              {|{"t":0,"ev":"rotate","subrun":0,"coordinator":0}|};
            ]
        with
        | Ok _ -> Alcotest.fail "accepted trailing events"
        | Error msg ->
            Alcotest.(check bool)
              "diagnosed" true
              (contains msg "after the metrics line"));
  ]

let dist_tests =
  [
    Alcotest.test_case "empty distribution is all zeros" `Quick (fun () ->
        let d = Sim.Metrics.summary_of_ints [] in
        Alcotest.(check int) "count" 0 d.Sim.Metrics.count;
        Alcotest.(check (float 0.0)) "mean" 0.0 d.Sim.Metrics.mean;
        Alcotest.(check (float 0.0)) "p95" 0.0 d.Sim.Metrics.p95);
    Alcotest.test_case "single sample is every quantile" `Quick (fun () ->
        let d = Sim.Metrics.summary_of_ints [ 7 ] in
        Alcotest.(check int) "count" 1 d.Sim.Metrics.count;
        Alcotest.(check (float 1e-9)) "min" 7.0 d.Sim.Metrics.min;
        Alcotest.(check (float 1e-9)) "max" 7.0 d.Sim.Metrics.max;
        Alcotest.(check (float 1e-9)) "p50" 7.0 d.Sim.Metrics.p50;
        Alcotest.(check (float 1e-9)) "p95" 7.0 d.Sim.Metrics.p95);
    Alcotest.test_case "nearest-rank boundaries on 20 samples" `Quick (fun () ->
        let d = Sim.Metrics.summary_of_ints (List.init 20 (fun i -> 20 - i)) in
        (* rank(0.50 * 20) = 10th, rank(0.95 * 20) = 19th, of the sorted
           samples *)
        Alcotest.(check (float 1e-9)) "mean" 10.5 d.Sim.Metrics.mean;
        Alcotest.(check (float 1e-9)) "p50" 10.0 d.Sim.Metrics.p50;
        Alcotest.(check (float 1e-9)) "p95" 19.0 d.Sim.Metrics.p95);
  ]

let export_tests =
  [
    Alcotest.test_case "analysis report is byte-deterministic" `Quick (fun () ->
        let report_of_run () =
          let lines = Suite_trace.trace_jsonl (Suite_trace.golden_scenario ()) in
          match Sim.Analysis.parse_jsonl lines with
          | Error msg -> Alcotest.fail msg
          | Ok (records, _) ->
              Sim.Analysis.report_json (Sim.Analysis.analyze records)
        in
        let a = report_of_run () and b = report_of_run () in
        Alcotest.(check string) "identical" a b;
        Alcotest.(check bool) "verdict ok" true (contains a {|"ok":true|});
        Alcotest.(check bool)
          "has latency distribution" true
          (contains a {|"latency_rtd":{"count":9|}));
    Alcotest.test_case "report is valid JSON under the strict parser" `Quick
      (fun () ->
        let a = analyze ~n:2 clean_history in
        match Sim.Json.parse (Sim.Analysis.report_json a) with
        | Error msg -> Alcotest.fail msg
        | Ok json ->
            Alcotest.(check bool)
              "has a verdict object" true
              (Sim.Json.member "verdict" json <> None));
    Alcotest.test_case "perfetto export is valid JSON with per-node tracks"
      `Quick (fun () ->
        let lines = Suite_trace.trace_jsonl (Suite_trace.golden_scenario ()) in
        match Sim.Analysis.parse_jsonl lines with
        | Error msg -> Alcotest.fail msg
        | Ok (records, _) -> (
            let out = Sim.Analysis.perfetto_json records in
            match Sim.Json.parse out with
            | Error msg -> Alcotest.failf "invalid perfetto JSON: %s" msg
            | Ok json -> (
                match Sim.Json.member "traceEvents" json with
                | Some (Sim.Json.List events) ->
                    let phases =
                      List.filter_map
                        (fun e ->
                          match Sim.Json.member "ph" e with
                          | Some (Sim.Json.Str ph) -> Some ph
                          | _ -> None)
                        events
                    in
                    Alcotest.(check int)
                      "every event has a phase" (List.length events)
                      (List.length phases);
                    (* 4 node tracks + net + group + process name. *)
                    Alcotest.(check int)
                      "metadata records" 7
                      (List.length (List.filter (fun p -> p = "M") phases));
                    Alcotest.(check bool)
                      "some complete spans" true
                      (List.exists (fun p -> p = "X") phases);
                    Alcotest.(check bool)
                      "some instants" true
                      (List.exists (fun p -> p = "i") phases)
                | _ -> Alcotest.fail "no traceEvents array")));
    Alcotest.test_case "perfetto export is byte-deterministic" `Quick (fun () ->
        let once () =
          Sim.Analysis.perfetto_json
            (match
               Sim.Analysis.parse_jsonl
                 (Suite_trace.trace_jsonl (Suite_trace.golden_scenario ()))
             with
            | Ok (records, _) -> records
            | Error msg -> Alcotest.fail msg)
        in
        Alcotest.(check string) "identical" (once ()) (once ()));
  ]

(* The cross-validation property: for randomized campaign configurations —
   including crash/omission/loss injection and over-budget silencing — the
   trace oracle must agree with the live checker bit by bit.  A disagreement
   fails with the seed and spec printed, so it replays with
   [urcgc_sim replay ... --analyze]. *)
let agreement_property ~over_budget ~budget ~seed () =
  let rng = Sim.Rng.create ~seed in
  for index = 0 to budget - 1 do
    let spec = Workload.Campaign.generate ~over_budget rng in
    let run_seed = Sim.Rng.derive ~seed index in
    let scenario =
      Workload.Campaign.scenario_of_spec ~name:"oracle-prop" ~seed:run_seed
        spec
    in
    let result = Workload.Analyzer.run_scenario scenario in
    let checker = result.Workload.Analyzer.report.Workload.Runner.verdict in
    let oracle = result.Workload.Analyzer.analysis.Sim.Analysis.verdict in
    if not (Workload.Analyzer.agrees checker oracle) then
      Alcotest.failf
        "oracle disagreement at run %d (seed %d): %a@.%a" index run_seed
        Workload.Campaign.pp_spec spec Workload.Analyzer.pp_disagreement
        (checker, oracle)
  done

let property_tests =
  [
    Alcotest.test_case "oracle agrees with the checker (within budget)" `Slow
      (agreement_property ~over_budget:false ~budget:100 ~seed:2024);
    Alcotest.test_case "oracle agrees with the checker (over budget)" `Slow
      (agreement_property ~over_budget:true ~budget:30 ~seed:2025);
    Alcotest.test_case "campaign embeds agreement bits under --analyze" `Quick
      (fun () ->
        let campaign =
          Workload.Campaign.run ~shrink_failures:false ~with_analysis:true
            ~budget:3 ~seed:7 ()
        in
        List.iter
          (fun r ->
            Alcotest.(check (option bool))
              "agrees" (Some true) r.Workload.Campaign.oracle_agrees;
            Alcotest.(check bool)
              "analysis embedded" true
              (r.Workload.Campaign.analysis <> None))
          campaign.Workload.Campaign.runs;
        Alcotest.(check bool)
          "report json carries it" true
          (contains
             (Workload.Campaign.to_json campaign)
             {|"oracle_agrees":true|}));
  ]

let suite =
  [
    ("analysis.oracle", oracle_tests);
    ("analysis.truncation", truncation_tests);
    ("analysis.parser", parser_tests);
    ("analysis.dist", dist_tests);
    ("analysis.export", export_tests);
    ("analysis.property", property_tests);
  ]
