(* Tests for the network substrate: node ids, fault injection, traffic
   accounting, the datagram simulator, and the transport entity. *)

let node n = Net.Node_id.of_int n

let node_id_tests =
  [
    Alcotest.test_case "roundtrip" `Quick (fun () ->
        Alcotest.(check int) "7" 7 (Net.Node_id.to_int (node 7)));
    Alcotest.test_case "rejects negatives" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Node_id.of_int: negative")
          (fun () -> ignore (node (-1))));
    Alcotest.test_case "group enumerates ids" `Quick (fun () ->
        Alcotest.(check (list int)) "0..3" [ 0; 1; 2; 3 ]
          (List.map Net.Node_id.to_int (Net.Node_id.group 4)));
    Alcotest.test_case "group rejects non-positive" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Node_id.group: n must be positive") (fun () ->
            ignore (Net.Node_id.group 0)));
    Alcotest.test_case "set and map modules work" `Quick (fun () ->
        let set = Net.Node_id.Set.of_list [ node 2; node 1; node 2 ] in
        Alcotest.(check int) "2 distinct" 2 (Net.Node_id.Set.cardinal set);
        let map = Net.Node_id.Map.singleton (node 5) "five" in
        Alcotest.(check (option string)) "found" (Some "five")
          (Net.Node_id.Map.find_opt (node 5) map));
  ]

let fault_tests =
  [
    Alcotest.test_case "reliable spec never drops" `Quick (fun () ->
        let fault =
          Net.Fault.create Net.Fault.reliable ~rng:(Sim.Rng.create ~seed:1)
        in
        for _ = 1 to 1000 do
          Alcotest.(check bool) "send" false
            (Net.Fault.drop_on_send fault ~now:Sim.Ticks.zero (node 0));
          Alcotest.(check bool) "recv" false
            (Net.Fault.drop_on_recv fault ~now:Sim.Ticks.zero (node 0));
          Alcotest.(check bool) "link" false (Net.Fault.drop_on_link fault)
        done);
    Alcotest.test_case "crash takes effect at its time" `Quick (fun () ->
        let spec =
          Net.Fault.with_crashes
            [ (node 2, Sim.Ticks.of_int 100) ]
            Net.Fault.reliable
        in
        let fault = Net.Fault.create spec ~rng:(Sim.Rng.create ~seed:1) in
        Alcotest.(check bool) "before" false
          (Net.Fault.crashed fault ~now:(Sim.Ticks.of_int 99) (node 2));
        Alcotest.(check bool) "at" true
          (Net.Fault.crashed fault ~now:(Sim.Ticks.of_int 100) (node 2));
        Alcotest.(check bool) "others fine" false
          (Net.Fault.crashed fault ~now:(Sim.Ticks.of_int 500) (node 1)));
    Alcotest.test_case "crashed node drops sends and receives" `Quick (fun () ->
        let spec =
          Net.Fault.with_crashes [ (node 0, Sim.Ticks.zero) ] Net.Fault.reliable
        in
        let fault = Net.Fault.create spec ~rng:(Sim.Rng.create ~seed:1) in
        Alcotest.(check bool) "send" true
          (Net.Fault.drop_on_send fault ~now:Sim.Ticks.zero (node 0));
        Alcotest.(check bool) "recv" true
          (Net.Fault.drop_on_recv fault ~now:Sim.Ticks.zero (node 0)));
    Alcotest.test_case "crash_now crashes dynamically" `Quick (fun () ->
        let fault =
          Net.Fault.create Net.Fault.reliable ~rng:(Sim.Rng.create ~seed:1)
        in
        Net.Fault.crash_now fault ~now:(Sim.Ticks.of_int 50) (node 3);
        Alcotest.(check bool) "after" true
          (Net.Fault.crashed fault ~now:(Sim.Ticks.of_int 50) (node 3));
        Alcotest.(check bool) "not before" false
          (Net.Fault.crashed fault ~now:(Sim.Ticks.of_int 49) (node 3)));
    Alcotest.test_case "omission_every rate is honored" `Quick (fun () ->
        let spec = Net.Fault.omission_every 100 in
        let fault = Net.Fault.create spec ~rng:(Sim.Rng.create ~seed:9) in
        let drops = ref 0 in
        let trials = 200_000 in
        for _ = 1 to trials do
          if Net.Fault.drop_on_send fault ~now:Sim.Ticks.zero (node 0) then
            incr drops;
          if Net.Fault.drop_on_recv fault ~now:Sim.Ticks.zero (node 0) then
            incr drops
        done;
        (* send + recv halves combine to ~1/100 per full packet trip *)
        let rate = float_of_int !drops /. float_of_int trials in
        Alcotest.(check bool) "close to 1%" true (Float.abs (rate -. 0.01) < 0.002));
    Alcotest.test_case "omission_every rejects non-positive" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Fault.omission_every: k must be positive")
          (fun () -> ignore (Net.Fault.omission_every 0)));
    Alcotest.test_case "alive filters crashed" `Quick (fun () ->
        let spec =
          Net.Fault.with_crashes [ (node 1, Sim.Ticks.zero) ] Net.Fault.reliable
        in
        let fault = Net.Fault.create spec ~rng:(Sim.Rng.create ~seed:1) in
        Alcotest.(check (list int)) "without p1" [ 0; 2 ]
          (List.map Net.Node_id.to_int
             (Net.Fault.alive fault ~now:Sim.Ticks.zero
                ~all:[ node 0; node 1; node 2 ])));
  ]

let traffic_tests =
  [
    Alcotest.test_case "records counts and bytes per kind" `Quick (fun () ->
        let t = Net.Traffic.create () in
        Net.Traffic.record t ~kind:Net.Traffic.Data ~size:100;
        Net.Traffic.record t ~kind:Net.Traffic.Data ~size:50;
        Net.Traffic.record t ~kind:Net.Traffic.Control ~size:30;
        Alcotest.(check int) "data count" 2 (Net.Traffic.count t Net.Traffic.Data);
        Alcotest.(check int) "data bytes" 150
          (Net.Traffic.bytes t Net.Traffic.Data);
        Alcotest.(check int) "control" 1 (Net.Traffic.count t Net.Traffic.Control);
        Alcotest.(check int) "total count" 3 (Net.Traffic.total_count t);
        Alcotest.(check int) "total bytes" 180 (Net.Traffic.total_bytes t));
    Alcotest.test_case "mean and max size" `Quick (fun () ->
        let t = Net.Traffic.create () in
        Net.Traffic.record t ~kind:Net.Traffic.Control ~size:10;
        Net.Traffic.record t ~kind:Net.Traffic.Control ~size:30;
        Alcotest.(check (float 1e-9)) "mean" 20.0
          (Net.Traffic.mean_size t Net.Traffic.Control);
        Alcotest.(check int) "max" 30 (Net.Traffic.max_size t Net.Traffic.Control);
        Alcotest.(check (float 1e-9)) "mean of empty kind" 0.0
          (Net.Traffic.mean_size t Net.Traffic.Ack));
    Alcotest.test_case "reset clears" `Quick (fun () ->
        let t = Net.Traffic.create () in
        Net.Traffic.record t ~kind:Net.Traffic.Recovery ~size:10;
        Net.Traffic.reset t;
        Alcotest.(check int) "zero" 0 (Net.Traffic.total_count t));
  ]

let make_net ?(spec = Net.Fault.reliable) ?latency ~seed () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create spec ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create ?latency engine ~fault ~rng:(Sim.Rng.split rng) () in
  (engine, net)

let netsim_tests =
  [
    Alcotest.test_case "delivers a packet with bounded latency" `Quick (fun () ->
        let engine, net = make_net ~seed:1 () in
        let received = ref [] in
        Net.Netsim.attach net (node 1) (fun packet ->
            received :=
              (packet.Net.Netsim.payload, Sim.Engine.now engine) :: !received);
        Net.Netsim.send net ~src:(node 0) ~dst:(node 1) ~kind:Net.Traffic.Data
          ~size:10 "hi";
        Sim.Engine.run engine;
        match !received with
        | [ ("hi", at) ] ->
            let t = Sim.Ticks.to_int at in
            Alcotest.(check bool) "within a round" true (t >= 40 && t < 50)
        | _ -> Alcotest.fail "expected exactly one delivery");
    Alcotest.test_case "multicast reaches all destinations" `Quick (fun () ->
        let engine, net = make_net ~seed:2 () in
        let got = ref [] in
        List.iter
          (fun i ->
            Net.Netsim.attach net (node i) (fun _ -> got := i :: !got))
          [ 1; 2; 3 ];
        Net.Netsim.multicast_array net ~src:(node 0)
          ~dsts:[| node 1; node 2; node 3 |] ~kind:Net.Traffic.Data ~size:10 ();
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "all" [ 1; 2; 3 ] (List.sort compare !got));
    Alcotest.test_case "traffic counts offered packets even when dropped" `Quick
      (fun () ->
        let spec = { Net.Fault.reliable with link_loss = 1.0 } in
        let engine, net = make_net ~spec ~seed:3 () in
        Net.Netsim.attach net (node 1) (fun _ -> Alcotest.fail "dropped!");
        Net.Netsim.send net ~src:(node 0) ~dst:(node 1) ~kind:Net.Traffic.Data
          ~size:10 ();
        Sim.Engine.run engine;
        Alcotest.(check int) "offered" 1
          (Net.Traffic.count (Net.Netsim.traffic net) Net.Traffic.Data);
        Alcotest.(check int) "dropped" 1 (Net.Netsim.dropped_count net));
    Alcotest.test_case "crashed destination receives nothing" `Quick (fun () ->
        let spec =
          Net.Fault.with_crashes [ (node 1, Sim.Ticks.zero) ] Net.Fault.reliable
        in
        let engine, net = make_net ~spec ~seed:4 () in
        Net.Netsim.attach net (node 1) (fun _ -> Alcotest.fail "dead node got packet");
        Net.Netsim.send net ~src:(node 0) ~dst:(node 1) ~kind:Net.Traffic.Data
          ~size:10 ();
        Sim.Engine.run engine;
        Alcotest.(check int) "dropped" 1 (Net.Netsim.dropped_count net));
    Alcotest.test_case "crashed source sends nothing" `Quick (fun () ->
        let spec =
          Net.Fault.with_crashes [ (node 0, Sim.Ticks.zero) ] Net.Fault.reliable
        in
        let engine, net = make_net ~spec ~seed:5 () in
        Net.Netsim.attach net (node 1) (fun _ -> Alcotest.fail "got packet");
        Net.Netsim.send net ~src:(node 0) ~dst:(node 1) ~kind:Net.Traffic.Data
          ~size:10 ();
        Sim.Engine.run engine);
    Alcotest.test_case "attach rejects double registration" `Quick (fun () ->
        let _, net = make_net ~seed:6 () in
        Net.Netsim.attach net (node 1) (fun _ -> ());
        Alcotest.check_raises "dup"
          (Invalid_argument "Netsim.attach: node already attached") (fun () ->
            Net.Netsim.attach net (node 1) (fun (_ : unit Net.Netsim.packet) -> ())));
    Alcotest.test_case "a warm multicast allocates nothing and keeps nothing"
      `Quick (fun () ->
        let engine, net = make_net ~seed:8 () in
        let n = 15 in
        let dsts = Array.init n node in
        let received = ref 0 in
        Array.iter
          (fun dst ->
            Net.Netsim.attach_payload net dst (fun (_ : bytes) -> incr received))
          dsts;
        let unit_payload = Bytes.create 0 in
        let multicasts count =
          for i = 1 to count do
            Net.Netsim.multicast_array net ~src:dsts.(i mod n) ~dsts
              ~kind:Net.Traffic.Control ~size:64 unit_payload;
            while Sim.Engine.step engine do
              ()
            done
          done
        in
        (* The warm-up grows the bucket table and the engine heap. *)
        multicasts 1000;
        let before = Alloc_words.count () in
        multicasts 1000;
        let per_copy = (Alloc_words.count () -. before) /. float_of_int (1000 * n) in
        Alcotest.(check int) "every copy delivered" (2000 * n) !received;
        Alcotest.(check bool)
          (Printf.sprintf "%.3f words per copy < 1" per_copy)
          true (per_copy < 1.0);
        (* Recycled buckets hold no payload once delivered, whether sent
           by multicast or unicast. *)
        let count = 8 in
        let weak = Weak.create count in
        for i = 0 to count - 1 do
          let payload = Bytes.make 32 (Char.chr (65 + i)) in
          Weak.set weak i (Some payload);
          if i mod 2 = 0 then
            Net.Netsim.multicast_array net ~src:(node 0) ~dsts
              ~kind:Net.Traffic.Data ~size:32 payload
          else
            Net.Netsim.send net ~src:(node 0) ~dst:(node 1)
              ~kind:Net.Traffic.Data ~size:32 payload
        done;
        Sim.Engine.run engine;
        Gc.full_major ();
        for i = 0 to count - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "payload %d released" i)
            false (Weak.check weak i)
        done;
        (* The network is still live: only its buckets let go. *)
        Alcotest.(check int) "then delivered" ((2000 + 4) * n + 4)
          (Net.Netsim.delivered_count net));
    Alcotest.test_case "link loss drops roughly the configured fraction" `Quick
      (fun () ->
        let spec = { Net.Fault.reliable with link_loss = 0.25 } in
        let engine, net = make_net ~spec ~seed:7 () in
        let got = ref 0 in
        Net.Netsim.attach net (node 1) (fun _ -> incr got);
        for _ = 1 to 4000 do
          Net.Netsim.send net ~src:(node 0) ~dst:(node 1) ~kind:Net.Traffic.Data
            ~size:1 ()
        done;
        Sim.Engine.run engine;
        let rate = float_of_int !got /. 4000.0 in
        Alcotest.(check bool) "~75% delivered" true (Float.abs (rate -. 0.75) < 0.03));
  ]

let make_transport ?(spec = Net.Fault.reliable) ?retry_interval ?max_retries
    ~seed () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create spec ~rng:(Sim.Rng.split rng) in
  let transport =
    Net.Transport.create ?retry_interval ?max_retries engine ~fault
      ~rng:(Sim.Rng.split rng) ()
  in
  (engine, transport)

let transport_tests =
  [
    Alcotest.test_case "delivers and confirms with h acks" `Quick (fun () ->
        let engine, transport = make_transport ~seed:1 () in
        let got = ref [] in
        Net.Transport.attach transport (node 0) (fun ~src:_ _ -> ());
        List.iter
          (fun i ->
            Net.Transport.attach transport (node i) (fun ~src:_ msg ->
                got := (i, msg) :: !got))
          [ 1; 2; 3 ];
        let confirmed = ref (-1) in
        Net.Transport.request transport ~src:(node 0)
          ~dsts:[ node 1; node 2; node 3 ] ~h:3 ~kind:Net.Traffic.Data ~size:10
          ~on_confirm:(fun ~acked -> confirmed := acked)
          "payload";
        Sim.Engine.run engine;
        Alcotest.(check int) "3 deliveries" 3 (List.length !got);
        Alcotest.(check int) "3 acks" 3 !confirmed);
    Alcotest.test_case "retransmits through losses" `Quick (fun () ->
        (* Heavy link loss: the transport must still get the message through
           within its retry budget most of the time. *)
        let spec = { Net.Fault.reliable with link_loss = 0.4 } in
        let engine, transport =
          make_transport ~spec ~max_retries:8 ~seed:2 ()
        in
        let got = ref 0 in
        Net.Transport.attach transport (node 0) (fun ~src:_ () -> ());
        Net.Transport.attach transport (node 1) (fun ~src:_ () -> incr got);
        let confirmed = ref 0 in
        for _ = 1 to 50 do
          Net.Transport.request transport ~src:(node 0) ~dsts:[ node 1 ] ~h:1
            ~kind:Net.Traffic.Data ~size:10
            ~on_confirm:(fun ~acked -> confirmed := !confirmed + acked)
            ()
        done;
        Sim.Engine.run engine;
        Alcotest.(check int) "all delivered despite loss" 50 !got;
        Alcotest.(check bool) "retransmissions happened" true
          (Net.Transport.retransmissions transport > 0));
    Alcotest.test_case "suppresses duplicate deliveries" `Quick (fun () ->
        (* Lose acks only: receiver gets several copies, delivers once. *)
        let spec = { Net.Fault.reliable with link_loss = 0.5 } in
        let engine, transport = make_transport ~spec ~max_retries:6 ~seed:3 () in
        let got = ref 0 in
        Net.Transport.attach transport (node 0) (fun ~src:_ () -> ());
        Net.Transport.attach transport (node 1) (fun ~src:_ () -> incr got);
        Net.Transport.request transport ~src:(node 0) ~dsts:[ node 1 ] ~h:1
          ~kind:Net.Traffic.Data ~size:10
          ~on_confirm:(fun ~acked:_ -> ())
          ();
        Sim.Engine.run engine;
        Alcotest.(check bool) "at most one delivery" true (!got <= 1));
    Alcotest.test_case "never fails: confirms with partial acks" `Quick
      (fun () ->
        let spec =
          Net.Fault.with_crashes [ (node 2, Sim.Ticks.zero) ] Net.Fault.reliable
        in
        let engine, transport = make_transport ~spec ~max_retries:2 ~seed:4 () in
        Net.Transport.attach transport (node 0) (fun ~src:_ () -> ());
        Net.Transport.attach transport (node 1) (fun ~src:_ () -> ());
        Net.Transport.attach transport (node 2) (fun ~src:_ () -> ());
        let confirmed = ref (-1) in
        Net.Transport.request transport ~src:(node 0) ~dsts:[ node 1; node 2 ]
          ~h:2 ~kind:Net.Traffic.Data ~size:10
          ~on_confirm:(fun ~acked -> confirmed := acked)
          ();
        Sim.Engine.run engine;
        Alcotest.(check int) "confirmed with 1 of 2" 1 !confirmed);
    Alcotest.test_case "confirms every request exactly once" `Quick (fun () ->
        (* Lossy links, h = |dsts|, and a retry interval shorter than the
           round trip with a budget of one retry: a request is confirmed by
           its last ack before the budget runs out or with partial acks when
           it does, and the acks of its retransmitted copies arrive after
           either.  Every path must confirm once and only once. *)
        let spec = { Net.Fault.reliable with link_loss = 0.3 } in
        let engine, transport =
          make_transport ~spec ~retry_interval:(Sim.Ticks.of_int 60)
            ~max_retries:1 ~seed:7 ()
        in
        List.iter
          (fun i ->
            Net.Transport.attach transport (node i) (fun ~src:_ () -> ()))
          [ 0; 1; 2; 3 ];
        let requests = 200 in
        let confirms = Array.make requests 0 in
        let full = ref 0 and partial = ref 0 in
        for i = 0 to requests - 1 do
          Net.Transport.request transport ~src:(node 0)
            ~dsts:[ node 1; node 2; node 3 ] ~h:3 ~kind:Net.Traffic.Data
            ~size:10
            ~on_confirm:(fun ~acked ->
              confirms.(i) <- confirms.(i) + 1;
              incr (if acked = 3 then full else partial))
            ()
        done;
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "one confirmation per request" []
          (List.filter (( <> ) 1) (Array.to_list confirms));
        Alcotest.(check bool) "some confirmed by acks" true (!full > 0);
        Alcotest.(check bool) "some by an exhausted budget" true
          (!partial > 0));
    Alcotest.test_case "late copies reach every destination exactly once"
      `Quick (fun () ->
        (* A retry interval shorter than the one-way latency: every request
           is retransmitted before its first ack returns, so copies keep
           landing after the confirmation (h = 1 confirms at the first
           ack).  Each destination must get each body once, neither twice
           nor never. *)
        let engine, transport =
          make_transport ~retry_interval:(Sim.Ticks.of_int 20) ~max_retries:4
            ~seed:8 ()
        in
        let requests = 40 in
        let got = Array.make_matrix 4 requests 0 in
        List.iter
          (fun i ->
            Net.Transport.attach transport (node i) (fun ~src:_ body ->
                got.(i).(body) <- got.(i).(body) + 1))
          [ 0; 1; 2; 3 ];
        for body = 0 to requests - 1 do
          Net.Transport.request transport ~src:(node 0)
            ~dsts:[ node 1; node 2; node 3 ] ~h:1 ~kind:Net.Traffic.Data
            ~size:10
            ~on_confirm:(fun ~acked:_ -> ())
            body
        done;
        Sim.Engine.run engine;
        Alcotest.(check bool) "copies were retransmitted" true
          (Net.Transport.retransmissions transport > 0);
        List.iter
          (fun i ->
            Alcotest.(check (list int))
              (Printf.sprintf "p%d got every body once" i)
              (List.init requests (fun _ -> 1))
              (Array.to_list got.(i)))
          [ 1; 2; 3 ]);
    Alcotest.test_case "state stays flat across confirmed requests" `Quick
      (fun () ->
        (* Sequential, confirmed 3-destination requests: once a request's
           copies have all landed the transport must hold nothing of it, so
           the words it keeps reachable do not grow with the count. *)
        let engine, transport = make_transport ~seed:9 () in
        List.iter
          (fun i -> Net.Transport.attach transport (node i) (fun ~src:_ () -> ()))
          [ 0; 1; 2; 3 ];
        let confirmed = ref 0 in
        let send count =
          for _ = 1 to count do
            Net.Transport.request transport ~src:(node 0)
              ~dsts:[ node 1; node 2; node 3 ] ~h:3 ~kind:Net.Traffic.Data
              ~size:10
              ~on_confirm:(fun ~acked:_ -> incr confirmed)
              ();
            Sim.Engine.run engine
          done
        in
        send 1_000;
        let after_1k = Obj.reachable_words (Obj.repr transport) in
        send 9_000;
        let after_10k = Obj.reachable_words (Obj.repr transport) in
        Alcotest.(check int) "all confirmed" 10_000 !confirmed;
        Alcotest.(check int) "same words after 1 000 and 10 000" after_1k
          after_10k);
    Alcotest.test_case "validates h and dsts" `Quick (fun () ->
        let _, transport = make_transport ~seed:5 () in
        Alcotest.check_raises "empty"
          (Invalid_argument "Transport.request: empty destination set")
          (fun () ->
            Net.Transport.request transport ~src:(node 0) ~dsts:[] ~h:1
              ~kind:Net.Traffic.Data ~size:1
              ~on_confirm:(fun ~acked:_ -> ())
              ());
        Alcotest.check_raises "h too big"
          (Invalid_argument "Transport.request: h out of range") (fun () ->
            Net.Transport.request transport ~src:(node 0) ~dsts:[ node 1 ] ~h:2
              ~kind:Net.Traffic.Data ~size:1
              ~on_confirm:(fun ~acked:_ -> ())
              ()));
    Alcotest.test_case "acks are accounted as ack traffic" `Quick (fun () ->
        let engine, transport = make_transport ~seed:6 () in
        Net.Transport.attach transport (node 0) (fun ~src:_ () -> ());
        Net.Transport.attach transport (node 1) (fun ~src:_ () -> ());
        Net.Transport.request transport ~src:(node 0) ~dsts:[ node 1 ] ~h:1
          ~kind:Net.Traffic.Data ~size:10
          ~on_confirm:(fun ~acked:_ -> ())
          ();
        Sim.Engine.run engine;
        let traffic = Net.Transport.traffic transport in
        Alcotest.(check int) "1 data" 1 (Net.Traffic.count traffic Net.Traffic.Data);
        Alcotest.(check int) "1 ack" 1 (Net.Traffic.count traffic Net.Traffic.Ack));
  ]

let suite =
  [
    ("net.node_id", node_id_tests);
    ("net.fault", fault_tests);
    ("net.traffic", traffic_tests);
    ("net.netsim", netsim_tests);
    ("net.transport", transport_tests);
  ]
