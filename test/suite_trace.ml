(* The typed observability layer: sink semantics (ring buffer, stateless
   null), the deterministic JSONL export (golden fixed-seed run, byte
   identity across runs), the human rendering, and the Metrics registry. *)

let at n = Sim.Ticks.of_int n
let note ?(source = "test") message = Sim.Trace.Note { source; message }

(* Golden JSONL of the fixed-seed scenario below; regenerable with
     urcgc_sim trace -n 4 -K 2 --rate 1 --messages 3 --seed 5 --max-rtd 30 *)
let golden_lines =
  [
    {|{"t":0,"ev":"rotate","subrun":0,"coordinator":0}|};
    {|{"t":0,"ev":"send","src":1,"dst":0,"pdu":{"kind":"request","sender":1,"subrun":0}}|};
    {|{"t":0,"ev":"send","src":2,"dst":0,"pdu":{"kind":"request","sender":2,"subrun":0}}|};
    {|{"t":0,"ev":"send","src":3,"dst":0,"pdu":{"kind":"request","sender":3,"subrun":0}}|};
    {|{"t":45,"ev":"recv","node":0,"pdu":{"kind":"request","sender":3,"subrun":0}}|};
    {|{"t":46,"ev":"recv","node":0,"pdu":{"kind":"request","sender":2,"subrun":0}}|};
    {|{"t":49,"ev":"recv","node":0,"pdu":{"kind":"request","sender":1,"subrun":0}}|};
    {|{"t":50,"ev":"broadcast","src":0,"dsts":3,"pdu":{"kind":"decision","subrun":0,"coordinator":0,"full_group":true}}|};
    {|{"t":50,"ev":"broadcast","src":0,"dsts":3,"pdu":{"kind":"data","origin":0,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":50,"ev":"deliver","node":0,"origin":0,"seq":1}|};
    {|{"t":50,"ev":"confirm","node":0,"origin":0,"seq":1}|};
    {|{"t":50,"ev":"broadcast","src":1,"dsts":3,"pdu":{"kind":"data","origin":1,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":50,"ev":"deliver","node":1,"origin":1,"seq":1}|};
    {|{"t":50,"ev":"confirm","node":1,"origin":1,"seq":1}|};
    {|{"t":50,"ev":"broadcast","src":2,"dsts":3,"pdu":{"kind":"data","origin":2,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":50,"ev":"deliver","node":2,"origin":2,"seq":1}|};
    {|{"t":50,"ev":"confirm","node":2,"origin":2,"seq":1}|};
    {|{"t":91,"ev":"recv","node":2,"pdu":{"kind":"data","origin":1,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":91,"ev":"deliver","node":2,"origin":1,"seq":1}|};
    {|{"t":93,"ev":"recv","node":3,"pdu":{"kind":"data","origin":0,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":93,"ev":"deliver","node":3,"origin":0,"seq":1}|};
    {|{"t":95,"ev":"recv","node":1,"pdu":{"kind":"data","origin":0,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":95,"ev":"deliver","node":1,"origin":0,"seq":1}|};
    {|{"t":96,"ev":"recv","node":3,"pdu":{"kind":"data","origin":1,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":96,"ev":"deliver","node":3,"origin":1,"seq":1}|};
    {|{"t":97,"ev":"recv","node":2,"pdu":{"kind":"data","origin":0,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":97,"ev":"deliver","node":2,"origin":0,"seq":1}|};
    {|{"t":97,"ev":"recv","node":3,"pdu":{"kind":"data","origin":2,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":97,"ev":"deliver","node":3,"origin":2,"seq":1}|};
    {|{"t":98,"ev":"recv","node":2,"pdu":{"kind":"decision","subrun":0,"coordinator":0,"full_group":true}}|};
    {|{"t":98,"ev":"recv","node":1,"pdu":{"kind":"data","origin":2,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":98,"ev":"deliver","node":1,"origin":2,"seq":1}|};
    {|{"t":99,"ev":"recv","node":1,"pdu":{"kind":"decision","subrun":0,"coordinator":0,"full_group":true}}|};
    {|{"t":99,"ev":"recv","node":3,"pdu":{"kind":"decision","subrun":0,"coordinator":0,"full_group":true}}|};
    {|{"t":99,"ev":"recv","node":0,"pdu":{"kind":"data","origin":1,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":99,"ev":"deliver","node":0,"origin":1,"seq":1}|};
    {|{"t":99,"ev":"recv","node":0,"pdu":{"kind":"data","origin":2,"seq":1,"deps":0,"bytes":64}}|};
    {|{"t":99,"ev":"deliver","node":0,"origin":2,"seq":1}|};
    {|{"t":100,"ev":"rotate","subrun":1,"coordinator":1}|};
    {|{"t":100,"ev":"send","src":0,"dst":1,"pdu":{"kind":"request","sender":0,"subrun":1}}|};
    {|{"t":100,"ev":"send","src":2,"dst":1,"pdu":{"kind":"request","sender":2,"subrun":1}}|};
    {|{"t":100,"ev":"send","src":3,"dst":1,"pdu":{"kind":"request","sender":3,"subrun":1}}|};
  ]

let golden_scenario () =
  Workload.Scenario.make ~name:"golden" ~seed:5 ~max_rtd:30.0
    ~config:(Urcgc.Config.make ~k:2 ~n:4 ())
    ~load:(Workload.Load.make ~rate:1.0 ~total_messages:3 ())
    ()

let trace_jsonl scenario =
  let trace = Sim.Trace.unbounded () in
  let (_ : Workload.Runner.report) =
    Workload.Runner.run ~tracer:trace scenario
  in
  List.map Sim.Trace.json_of_record (Sim.Trace.records trace)

let sink_tests =
  [
    Alcotest.test_case "ring buffer keeps the newest records" `Quick (fun () ->
        let t = Sim.Trace.create ~capacity:3 () in
        for i = 1 to 10 do
          Sim.Trace.emit t ~time:(at i) (note (string_of_int i))
        done;
        Alcotest.(check int) "total counts drops" 10 (Sim.Trace.count t);
        let kept =
          List.map
            (fun r -> Sim.Trace.event_message r.Sim.Trace.event)
            (Sim.Trace.records t)
        in
        Alcotest.(check (list string)) "last three" [ "8"; "9"; "10" ] kept);
    Alcotest.test_case "create rejects capacity < 1" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Trace.create: capacity must be positive")
          (fun () -> ignore (Sim.Trace.create ~capacity:0 ()));
        Alcotest.check_raises "negative"
          (Invalid_argument "Trace.create: capacity must be positive")
          (fun () -> ignore (Sim.Trace.create ~capacity:(-3) ())));
    Alcotest.test_case "count tallies all emissions, retained only the kept"
      `Quick (fun () ->
        let t = Sim.Trace.create ~capacity:3 () in
        Alcotest.(check int) "retained when empty" 0 (Sim.Trace.retained t);
        for i = 1 to 10 do
          Sim.Trace.emit t ~time:(at i) (note (string_of_int i))
        done;
        Alcotest.(check int) "count" 10 (Sim.Trace.count t);
        Alcotest.(check int) "retained" 3 (Sim.Trace.retained t);
        Alcotest.(check int)
          "retained = records length" (List.length (Sim.Trace.records t))
          (Sim.Trace.retained t);
        let u = Sim.Trace.unbounded () in
        for i = 1 to 10 do
          Sim.Trace.emit u ~time:(at i) (note (string_of_int i))
        done;
        Alcotest.(check int) "unbounded retains all" 10 (Sim.Trace.retained u));
    Alcotest.test_case "traffic class and stage names round-trip" `Quick
      (fun () ->
        List.iter
          (fun class_ ->
            let name = Sim.Trace.Traffic_class.to_string class_ in
            match Sim.Trace.Traffic_class.of_string name with
            | Some back when back = class_ -> ()
            | _ -> Alcotest.failf "traffic class %s does not round-trip" name)
          Sim.Trace.Traffic_class.all;
        Alcotest.(check int)
          "four classes" 4
          (List.length Sim.Trace.Traffic_class.all);
        Alcotest.(check bool)
          "unknown class rejected" true
          (Sim.Trace.Traffic_class.of_string "gossip" = None);
        List.iter
          (fun stage ->
            let name = Sim.Trace.stage_to_string stage in
            match Sim.Trace.stage_of_string name with
            | Some back when back = stage -> ()
            | _ -> Alcotest.failf "stage %s does not round-trip" name)
          [
            Sim.Trace.On_send; Sim.Trace.On_link; Sim.Trace.On_recv;
            Sim.Trace.On_filter;
          ];
        Alcotest.(check bool)
          "unknown stage rejected" true
          (Sim.Trace.stage_of_string "wire" = None));
    Alcotest.test_case "null retains nothing, ever" `Quick (fun () ->
        (* Regression: the null sink used to be a shared mutable record, so
           every user of the "disabled" tracer aliased one global queue.
           The null sink is now a stateless constructor: emitting to it
           cannot retain, and no two uses can observe each other. *)
        let null_a = Sim.Trace.null and null_b = Sim.Trace.null in
        for i = 1 to 1000 do
          Sim.Trace.emit null_a ~time:(at i) (note "discard me")
        done;
        Alcotest.(check bool) "disabled" false (Sim.Trace.enabled null_a);
        Alcotest.(check int) "count a" 0 (Sim.Trace.count null_a);
        Alcotest.(check int) "count b" 0 (Sim.Trace.count null_b);
        Alcotest.(check bool) "no records" true (Sim.Trace.records null_a = []);
        Alcotest.(check bool)
          "find sees nothing" true
          (Sim.Trace.find null_a ~f:(fun _ -> true) = None));
    Alcotest.test_case "typed events render as source and message" `Quick
      (fun () ->
        let d = Sim.Trace.Deliver { node = 2; mid = { origin = 1; seq = 4 } } in
        let r = Sim.Trace.Rotate { subrun = 3; coordinator = 1 } in
        Alcotest.(check string) "deliver source" "n2" (Sim.Trace.event_source d);
        Alcotest.(check string)
          "deliver message" "processed n1#4" (Sim.Trace.event_message d);
        Alcotest.(check string) "rotate source" "group" (Sim.Trace.event_source r);
        Alcotest.(check string)
          "rotate message" "subrun 3 coordinator is n1"
          (Sim.Trace.event_message r));
  ]

let jsonl_tests =
  [
    Alcotest.test_case "record serialization is exact" `Quick (fun () ->
        let json event = Sim.Trace.json_of_record { time = at 12; event } in
        Alcotest.(check string)
          "drop"
          {|{"t":12,"ev":"drop","src":0,"dst":3,"kind":"data","stage":"link"}|}
          (json
             (Sim.Trace.Drop
                {
                  src = 0;
                  dst = 3;
                  kind = Sim.Trace.Traffic_class.Data;
                  stage = Sim.Trace.On_link;
                }));
        Alcotest.(check string)
          "wait_add"
          {|{"t":12,"ev":"wait_add","node":1,"origin":2,"seq":9,"depth":4}|}
          (json
             (Sim.Trace.Wait_add
                { node = 1; mid = { origin = 2; seq = 9 }; depth = 4 }));
        Alcotest.(check string)
          "wait_discard"
          {|{"t":12,"ev":"wait_discard","node":1,"mids":[[2,9],[3,1]]}|}
          (json
             (Sim.Trace.Wait_discard
                {
                  node = 1;
                  mids = [ { origin = 2; seq = 9 }; { origin = 3; seq = 1 } ];
                }));
        Alcotest.(check string)
          "crash" {|{"t":12,"ev":"crash","node":2}|}
          (json (Sim.Trace.Crash { node = 2 })));
    Alcotest.test_case "note strings are JSON-escaped" `Quick (fun () ->
        Alcotest.(check string)
          "escapes"
          {|{"t":1,"ev":"note","source":"a\"b","message":"line\nbreak\\and\ttab\u0001"}|}
          (Sim.Trace.json_of_record
             {
               time = at 1;
               event =
                 Sim.Trace.Note
                   { source = "a\"b"; message = "line\nbreak\\and\ttab\x01" };
             }));
    Alcotest.test_case "fixed-seed run matches the golden JSONL" `Quick
      (fun () ->
        let lines = trace_jsonl (golden_scenario ()) in
        Alcotest.(check int)
          "line count" (List.length golden_lines) (List.length lines);
        List.iteri
          (fun i (expected, got) ->
            Alcotest.(check string) (Printf.sprintf "line %d" i) expected got)
          (List.combine golden_lines lines));
    Alcotest.test_case "two runs serialize byte-identically" `Quick (fun () ->
        let a = trace_jsonl (golden_scenario ()) in
        let b = trace_jsonl (golden_scenario ()) in
        Alcotest.(check (list string)) "byte-identical" a b);
    Alcotest.test_case "tracing does not perturb the run" `Quick (fun () ->
        let quiet = Workload.Runner.run (golden_scenario ()) in
        let traced =
          Workload.Runner.run
            ~tracer:(Sim.Trace.unbounded ())
            (golden_scenario ())
        in
        Alcotest.(check int)
          "same deliveries" quiet.Workload.Runner.delivered_remote
          traced.Workload.Runner.delivered_remote;
        Alcotest.(check int)
          "same traffic" quiet.Workload.Runner.control_msgs
          traced.Workload.Runner.control_msgs);
    Alcotest.test_case "faults show up as crash and staged drop events" `Quick
      (fun () ->
        let scenario =
          Workload.Scenario.make ~name:"faulty" ~seed:11 ~max_rtd:40.0
            ~fault:
              (Net.Fault.with_crashes
                 [ (Net.Node_id.of_int 2, Sim.Ticks.of_int 101) ]
                 { Net.Fault.reliable with Net.Fault.link_loss = 0.05 })
            ~config:(Urcgc.Config.make ~k:2 ~n:5 ())
            ~load:(Workload.Load.make ~rate:0.8 ~total_messages:30 ())
            ()
        in
        let trace = Sim.Trace.unbounded () in
        let (_ : Workload.Runner.report) =
          Workload.Runner.run ~tracer:trace scenario
        in
        let crash =
          Sim.Trace.find trace ~f:(fun r ->
              match r.Sim.Trace.event with
              | Sim.Trace.Crash { node } -> node = 2
              | _ -> false)
        in
        (match crash with
        | Some r ->
            Alcotest.(check int) "crash at its scheduled tick" 101
              (Sim.Ticks.to_int r.Sim.Trace.time)
        | None -> Alcotest.fail "no crash event for node 2");
        let link_drop =
          Sim.Trace.find trace ~f:(fun r ->
              match r.Sim.Trace.event with
              | Sim.Trace.Drop { stage = Sim.Trace.On_link; _ } -> true
              | _ -> false)
        in
        Alcotest.(check bool) "some link drop traced" true (link_drop <> None));
  ]

let metrics_tests =
  [
    Alcotest.test_case "counters, gauges, histograms" `Quick (fun () ->
        let m = Sim.Metrics.create () in
        Sim.Metrics.incr m "a";
        Sim.Metrics.incr m "a";
        Sim.Metrics.incr ~by:3 m "b";
        Sim.Metrics.set_gauge m "g" 5;
        Sim.Metrics.set_gauge m "g" 2;
        Sim.Metrics.observe m "h" 1.5;
        Sim.Metrics.observe m "h" 2.5;
        Alcotest.(check int) "counter a" 2 (Sim.Metrics.counter m "a");
        Alcotest.(check int) "counter b" 3 (Sim.Metrics.counter m "b");
        Alcotest.(check int) "unknown counter" 0 (Sim.Metrics.counter m "zzz");
        Alcotest.(check (option int))
          "gauge last" (Some 2)
          (Sim.Metrics.gauge_last m "g");
        Alcotest.(check (option int))
          "gauge peak" (Some 5)
          (Sim.Metrics.gauge_peak m "g");
        (match Sim.Metrics.histogram m "h" with
        | None -> Alcotest.fail "histogram missing"
        | Some s ->
            Alcotest.(check int) "count" 2 s.Stats.Summary.count;
            Alcotest.(check (float 1e-9)) "mean" 2.0 s.Stats.Summary.mean;
            Alcotest.(check (float 1e-9)) "p50" 1.5 s.Stats.Summary.p50;
            Alcotest.(check (float 1e-9)) "p95" 2.5 s.Stats.Summary.p95);
        Alcotest.(check string)
          "deterministic JSON, names sorted"
          ({|{"counters":{"a":2,"b":3},"gauges":{"g":{"last":2,"peak":5}},|}
          ^ {|"histograms":{"h":{"count":2,"mean":2,"min":1.5,"max":2.5,"p50":1.5,"p95":2.5}}}|}
          )
          (Sim.Metrics.to_json m));
    Alcotest.test_case "nearest-rank quantiles" `Quick (fun () ->
        let m = Sim.Metrics.create () in
        for i = 1 to 10 do
          Sim.Metrics.observe m "h" (float_of_int i)
        done;
        match Sim.Metrics.histogram m "h" with
        | None -> Alcotest.fail "histogram missing"
        | Some s ->
            Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.Summary.min;
            Alcotest.(check (float 1e-9)) "max" 10.0 s.Stats.Summary.max;
            Alcotest.(check (float 1e-9)) "mean" 5.5 s.Stats.Summary.mean;
            Alcotest.(check (float 1e-9)) "p50" 5.0 s.Stats.Summary.p50;
            Alcotest.(check (float 1e-9)) "p95" 10.0 s.Stats.Summary.p95);
    Alcotest.test_case "empty registry renders empty sections" `Quick
      (fun () ->
        let m = Sim.Metrics.create () in
        Alcotest.(check string)
          "json" {|{"counters":{},"gauges":{},"histograms":{}}|}
          (Sim.Metrics.to_json m);
        Alcotest.(check bool) "enabled" true (Sim.Metrics.enabled m);
        Alcotest.(check bool)
          "no histogram" true
          (Sim.Metrics.histogram m "h" = None));
    Alcotest.test_case "single-sample histogram is its every statistic" `Quick
      (fun () ->
        let m = Sim.Metrics.create () in
        Sim.Metrics.observe m "h" 4.25;
        match Sim.Metrics.histogram m "h" with
        | None -> Alcotest.fail "histogram missing"
        | Some s ->
            Alcotest.(check int) "count" 1 s.Stats.Summary.count;
            Alcotest.(check (float 1e-9)) "mean" 4.25 s.Stats.Summary.mean;
            Alcotest.(check (float 1e-9)) "min" 4.25 s.Stats.Summary.min;
            Alcotest.(check (float 1e-9)) "max" 4.25 s.Stats.Summary.max;
            Alcotest.(check (float 1e-9)) "p50" 4.25 s.Stats.Summary.p50;
            Alcotest.(check (float 1e-9)) "p95" 4.25 s.Stats.Summary.p95);
    Alcotest.test_case "nearest-rank boundaries on 20 samples" `Quick
      (fun () ->
        (* rank(q) = ceil(q * count): p50 is the 10th of 20 ordered samples
           and p95 the 19th — one off either end, where rounding errors in a
           quantile implementation first show. *)
        let m = Sim.Metrics.create () in
        for i = 20 downto 1 do
          Sim.Metrics.observe m "h" (float_of_int i)
        done;
        match Sim.Metrics.histogram m "h" with
        | None -> Alcotest.fail "histogram missing"
        | Some s ->
            Alcotest.(check (float 1e-9)) "p50" 10.0 s.Stats.Summary.p50;
            Alcotest.(check (float 1e-9)) "p95" 19.0 s.Stats.Summary.p95);
    Alcotest.test_case "null registry records nothing" `Quick (fun () ->
        let m = Sim.Metrics.null in
        Sim.Metrics.incr m "a";
        Sim.Metrics.set_gauge m "g" 5;
        Sim.Metrics.observe m "h" 1.0;
        Alcotest.(check bool) "disabled" false (Sim.Metrics.enabled m);
        Alcotest.(check int) "counter" 0 (Sim.Metrics.counter m "a");
        Alcotest.(check (option int))
          "gauge" None (Sim.Metrics.gauge_last m "g");
        Alcotest.(check bool)
          "histogram" true
          (Sim.Metrics.histogram m "h" = None);
        Alcotest.(check string) "json" "{}" (Sim.Metrics.to_json m));
    Alcotest.test_case "a run populates the catalogue" `Quick (fun () ->
        let metrics = Sim.Metrics.create () in
        let report = Workload.Runner.run ~metrics (golden_scenario ()) in
        Alcotest.(check int)
          "generated counter agrees with the report"
          report.Workload.Runner.generated
          (Sim.Metrics.counter metrics "messages.generated");
        Alcotest.(check int)
          "remote deliveries agree" report.Workload.Runner.delivered_remote
          (Sim.Metrics.counter metrics "deliveries.remote");
        Alcotest.(check bool)
          "history gauge sampled" true
          (Sim.Metrics.gauge_peak metrics "history.occupancy" <> None);
        match Sim.Metrics.histogram metrics "delivery.latency_rtd" with
        | None -> Alcotest.fail "latency histogram missing"
        | Some s ->
            Alcotest.(check int)
              "one latency sample per remote delivery"
              report.Workload.Runner.delivered_remote s.Stats.Summary.count);
  ]

let suite =
  [
    ("trace.sink", sink_tests);
    ("trace.jsonl", jsonl_tests);
    ("trace.metrics", metrics_tests);
  ]
