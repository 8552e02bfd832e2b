(* Tests for the urcgc protocol: configuration, the pure coordinator, the
   member state machine, and end-to-end cluster scenarios with failure
   injection. *)

let node n = Net.Node_id.of_int n
let mid o s = Causal.Mid.make ~origin:(node o) ~seq:s

let config_tests =
  [
    Alcotest.test_case "defaults" `Quick (fun () ->
        let c = Urcgc.Config.make ~n:15 () in
        Alcotest.(check int) "k" 3 c.Urcgc.Config.k;
        Alcotest.(check int) "r > 2k" 10 c.Urcgc.Config.r;
        Alcotest.(check int) "silence 2k" 6 c.Urcgc.Config.silence_limit);
    Alcotest.test_case "resilience is (n-1)/2" `Quick (fun () ->
        Alcotest.(check int) "15 -> 7" 7
          (Urcgc.Config.resilience (Urcgc.Config.make ~n:15 ()));
        Alcotest.(check int) "4 -> 1" 1
          (Urcgc.Config.resilience (Urcgc.Config.make ~n:4 ())));
    Alcotest.test_case "validation" `Quick (fun () ->
        Alcotest.check_raises "n" (Invalid_argument "Config.make: n must be positive")
          (fun () -> ignore (Urcgc.Config.make ~n:0 ()));
        Alcotest.check_raises "r <= k"
          (Invalid_argument "Config.make: r must exceed k") (fun () ->
            ignore (Urcgc.Config.make ~n:3 ~k:5 ~r:4 ()));
        Alcotest.check_raises "flow"
          (Invalid_argument "Config.make: flow threshold must be positive")
          (fun () ->
            ignore (Urcgc.Config.make ~n:3 ~flow_threshold:(Some 0) ())));
  ]

let decision_tests =
  [
    Alcotest.test_case "initial decision" `Quick (fun () ->
        let d = Decisions.initial 4 in
        Alcotest.(check int) "subrun -1" (-1) d.Urcgc.Decision.subrun;
        Alcotest.(check bool) "nobody heard" false
          (Array.exists Fun.id d.Urcgc.Decision.heard);
        Alcotest.(check int) "4 alive" 4
          (List.length (Urcgc.Decision.alive_members d)));
    Alcotest.test_case "newer compares subruns" `Quick (fun () ->
        let d0 = Decisions.initial 4 in
        let d1 = { d0 with Urcgc.Decision.subrun = 3 } in
        Alcotest.(check bool) "newer" true (Urcgc.Decision.newer d1 ~than:d0);
        Alcotest.(check bool) "not newer" false (Urcgc.Decision.newer d0 ~than:d1));
    Alcotest.test_case "encoded size grows linearly in n" `Quick (fun () ->
        let s15 = Urcgc.Decision.encoded_size (Decisions.initial 15) in
        let s30 = Urcgc.Decision.encoded_size (Decisions.initial 30) in
        Alcotest.(check bool) "monotone" true (s30 > s15);
        (* the paper's point: a decision for n=15 fits an IP datagram *)
        Alcotest.(check bool) "fits 576B for n=15" true
          (s15 <= Stats.Analytic.ip_min_datagram));
  ]

(* -- pure coordinator --------------------------------------------------- *)

let request ~sender ~subrun ?(last = [||]) ?(waiting = [])
    ?(prev = Decisions.initial 4) n =
  let last_processed =
    if Array.length last = n then Array.copy last else Array.make n 0
  in
  let waiting_arr = Array.make n None in
  List.iter
    (fun (o, s) -> waiting_arr.(o) <- Some (mid o s))
    waiting;
  {
    Urcgc.Wire.sender = node sender;
    subrun;
    last_processed;
    waiting = waiting_arr;
    prev_decision = prev;
  }

let coordinator_tests =
  let config = Urcgc.Config.make ~n:4 ~k:2 () in
  [
    Alcotest.test_case "rotation cycles over alive processes" `Quick (fun () ->
        let alive = [| true; true; true; true |] in
        Alcotest.(check int) "s0" 0
          (Net.Node_id.to_int (Urcgc.Coordinator.rotation ~alive ~subrun:0));
        Alcotest.(check int) "s5" 1
          (Net.Node_id.to_int (Urcgc.Coordinator.rotation ~alive ~subrun:5));
        let alive = [| true; false; true; true |] in
        Alcotest.(check int) "skips dead" 2
          (Net.Node_id.to_int (Urcgc.Coordinator.rotation ~alive ~subrun:1)));
    Alcotest.test_case "rotation requires a live process" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Coordinator.rotation: no process alive") (fun () ->
            ignore
              (Urcgc.Coordinator.rotation ~alive:[| false; false |] ~subrun:0)));
    Alcotest.test_case "full group decision advances stability" `Quick (fun () ->
        let last = [| 5; 5; 5; 5 |] in
        let requests =
          List.init 4 (fun i -> request ~sender:i ~subrun:0 ~last 4)
        in
        let d =
          Urcgc.Coordinator.compute ~config ~subrun:0 ~coordinator:(node 0)
            ~prev:(Decisions.initial 4) ~requests
        in
        Alcotest.(check bool) "full" true d.Urcgc.Decision.full_group;
        Alcotest.(check (array int)) "stable" [| 5; 5; 5; 5 |]
          d.Urcgc.Decision.stable);
    Alcotest.test_case "stable is the minimum across processes" `Quick
      (fun () ->
        let requests =
          [
            request ~sender:0 ~subrun:0 ~last:[| 5; 2; 0; 1 |] 4;
            request ~sender:1 ~subrun:0 ~last:[| 3; 4; 0; 2 |] 4;
            request ~sender:2 ~subrun:0 ~last:[| 4; 3; 0; 9 |] 4;
            request ~sender:3 ~subrun:0 ~last:[| 9; 9; 0; 9 |] 4;
          ]
        in
        let d =
          Urcgc.Coordinator.compute ~config ~subrun:0 ~coordinator:(node 0)
            ~prev:(Decisions.initial 4) ~requests
        in
        Alcotest.(check (array int)) "min" [| 3; 2; 0; 1 |] d.Urcgc.Decision.stable);
    Alcotest.test_case "partial coverage defers stability to a later subrun"
      `Quick (fun () ->
        let prev = Decisions.initial 4 in
        (* Subrun 0: only p0, p1 heard. *)
        let d0 =
          Urcgc.Coordinator.compute ~config ~subrun:0 ~coordinator:(node 0)
            ~prev
            ~requests:
              [
                request ~sender:0 ~subrun:0 ~last:[| 4; 4; 4; 4 |] 4;
                request ~sender:1 ~subrun:0 ~last:[| 4; 4; 4; 4 |] 4;
              ]
        in
        Alcotest.(check bool) "not full" false d0.Urcgc.Decision.full_group;
        Alcotest.(check (array int)) "stable unchanged" [| 0; 0; 0; 0 |]
          d0.Urcgc.Decision.stable;
        (* Subrun 1: p2, p3 heard; cycle closes. *)
        let d1 =
          Urcgc.Coordinator.compute ~config ~subrun:1 ~coordinator:(node 1)
            ~prev:d0
            ~requests:
              [
                request ~sender:2 ~subrun:1 ~last:[| 5; 5; 5; 5 |] 4;
                request ~sender:3 ~subrun:1 ~last:[| 5; 5; 5; 5 |] 4;
              ]
        in
        Alcotest.(check bool) "full now" true d1.Urcgc.Decision.full_group;
        Alcotest.(check (array int)) "stable at min over cycle" [| 4; 4; 4; 4 |]
          d1.Urcgc.Decision.stable);
    Alcotest.test_case "silent process accumulates attempts, crashes at K"
      `Quick (fun () ->
        let prev = ref (Decisions.initial 4) in
        for s = 0 to 1 do
          prev :=
            Urcgc.Coordinator.compute ~config ~subrun:s ~coordinator:(node 0)
              ~prev:!prev
              ~requests:
                [
                  request ~sender:0 ~subrun:s 4;
                  request ~sender:1 ~subrun:s 4;
                  request ~sender:2 ~subrun:s 4;
                ]
        done;
        (* K = 2: after two silent subruns p3 is declared crashed. *)
        Alcotest.(check int) "attempts" 2 !prev.Urcgc.Decision.attempts.(3);
        Alcotest.(check bool) "crashed" false !prev.Urcgc.Decision.alive.(3));
    Alcotest.test_case "attempts reset when the process reappears" `Quick
      (fun () ->
        let prev =
          Urcgc.Coordinator.compute ~config ~subrun:0 ~coordinator:(node 0)
            ~prev:(Decisions.initial 4)
            ~requests:
              [
                request ~sender:0 ~subrun:0 4;
                request ~sender:1 ~subrun:0 4;
                request ~sender:2 ~subrun:0 4;
              ]
        in
        Alcotest.(check int) "one attempt" 1 prev.Urcgc.Decision.attempts.(3);
        let d =
          Urcgc.Coordinator.compute ~config ~subrun:1 ~coordinator:(node 1)
            ~prev
            ~requests:[ request ~sender:3 ~subrun:1 4 ]
        in
        Alcotest.(check int) "reset" 0 d.Urcgc.Decision.attempts.(3);
        Alcotest.(check bool) "alive" true d.Urcgc.Decision.alive.(3));
    Alcotest.test_case "max_processed tracks the most updated process" `Quick
      (fun () ->
        let d =
          Urcgc.Coordinator.compute ~config ~subrun:0 ~coordinator:(node 0)
            ~prev:(Decisions.initial 4)
            ~requests:
              [
                request ~sender:0 ~subrun:0 ~last:[| 2; 0; 0; 0 |] 4;
                request ~sender:1 ~subrun:0 ~last:[| 7; 3; 0; 0 |] 4;
              ]
        in
        Alcotest.(check int) "max for origin 0" 7 d.Urcgc.Decision.max_processed.(0);
        Alcotest.(check int) "holder is p1" 1
          (Net.Node_id.to_int d.Urcgc.Decision.most_updated.(0)));
    Alcotest.test_case "holder crash resets max_processed to live knowledge"
      `Quick (fun () ->
        (* p1 is most updated for origin 0, then goes silent for K subruns. *)
        let prev =
          Urcgc.Coordinator.compute ~config ~subrun:0 ~coordinator:(node 0)
            ~prev:(Decisions.initial 4)
            ~requests:
              [
                request ~sender:0 ~subrun:0 ~last:[| 2; 0; 0; 0 |] 4;
                request ~sender:1 ~subrun:0 ~last:[| 7; 3; 0; 0 |] 4;
                request ~sender:2 ~subrun:0 4;
                request ~sender:3 ~subrun:0 4;
              ]
        in
        let prev = ref prev in
        for s = 1 to 2 do
          prev :=
            Urcgc.Coordinator.compute ~config ~subrun:s ~coordinator:(node (s mod 4))
              ~prev:!prev
              ~requests:
                [
                  request ~sender:0 ~subrun:s ~last:[| 3; 1; 0; 0 |] 4;
                  request ~sender:2 ~subrun:s ~last:[| 2; 1; 0; 0 |] 4;
                  request ~sender:3 ~subrun:s ~last:[| 2; 1; 0; 0 |] 4;
                ]
        done;
        Alcotest.(check bool) "p1 declared crashed" false
          !prev.Urcgc.Decision.alive.(1);
        Alcotest.(check int) "max rebuilt from live processes" 3
          !prev.Urcgc.Decision.max_processed.(0));
    Alcotest.test_case "min_waiting published on full coverage" `Quick (fun () ->
        let d =
          Urcgc.Coordinator.compute ~config ~subrun:0 ~coordinator:(node 0)
            ~prev:(Decisions.initial 4)
            ~requests:
              [
                request ~sender:0 ~subrun:0 ~waiting:[ (1, 5) ] 4;
                request ~sender:1 ~subrun:0 ~waiting:[ (1, 3) ] 4;
                request ~sender:2 ~subrun:0 4;
                request ~sender:3 ~subrun:0 4;
              ]
        in
        Alcotest.(check bool) "full" true d.Urcgc.Decision.full_group;
        Alcotest.(check int) "min 3" 3 d.Urcgc.Decision.min_waiting.(1);
        Alcotest.(check int) "none for origin 2" 0 d.Urcgc.Decision.min_waiting.(2));
    Alcotest.test_case "merge_prev picks the most recent piggybacked decision"
      `Quick (fun () ->
        let d0 = Decisions.initial 4 in
        let d5 = { d0 with Urcgc.Decision.subrun = 5 } in
        let d3 = { d0 with Urcgc.Decision.subrun = 3 } in
        let merged =
          Urcgc.Coordinator.merge_prev d3
            [
              request ~sender:0 ~subrun:6 ~prev:d0 4;
              request ~sender:1 ~subrun:6 ~prev:d5 4;
            ]
        in
        Alcotest.(check int) "subrun 5" 5 merged.Urcgc.Decision.subrun);
  ]

(* -- member unit behaviour ---------------------------------------------- *)

(* One call's emissions, read as a list through [Urcgc.Member.collect]. *)
let begin_subrun m ~subrun =
  Urcgc.Member.collect (Urcgc.Member.begin_subrun m ~subrun)

let mid_subrun m ~subrun =
  Urcgc.Member.collect (Urcgc.Member.mid_subrun m ~subrun)

let handle m body =
  Urcgc.Member.collect (fun sink -> Urcgc.Member.handle m sink body)

let find_map f actions = List.find_map f actions

let sent_request actions =
  find_map
    (function
      | Urcgc.Member.Send (dst, Urcgc.Wire.Request r) -> Some (dst, r)
      | _ -> None)
    actions

let member_tests =
  let config = Urcgc.Config.make ~n:3 ~k:2 () in
  [
    Alcotest.test_case "begin_subrun sends the request to the coordinator"
      `Quick (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let actions = begin_subrun m ~subrun:0 in
        match sent_request actions with
        | Some (dst, r) ->
            Alcotest.(check int) "to p0" 0 (Net.Node_id.to_int dst);
            Alcotest.(check int) "subrun" 0 r.Urcgc.Wire.subrun
        | None -> Alcotest.fail "no request emitted");
    Alcotest.test_case "coordinator keeps its own request locally" `Quick
      (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 0) in
        let actions = begin_subrun m ~subrun:0 in
        Alcotest.(check bool) "no self-send" true (sent_request actions = None));
    Alcotest.test_case "coordinator broadcasts a decision at mid-subrun" `Quick
      (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 0) in
        ignore (begin_subrun m ~subrun:0);
        let actions = mid_subrun m ~subrun:0 in
        let decision =
          find_map
            (function
              | Urcgc.Member.Broadcast (Urcgc.Wire.Decision_pdu d) -> Some d
              | _ -> None)
            actions
        in
        match decision with
        | Some d -> Alcotest.(check int) "subrun 0" 0 d.Urcgc.Decision.subrun
        | None -> Alcotest.fail "no decision broadcast");
    Alcotest.test_case "submit then round: data broadcast + confirm + process"
      `Quick (fun () ->
        let m = Urcgc.Member.create config (node 1) in
        Urcgc.Member.submit m "hello";
        let actions = begin_subrun m ~subrun:0 in
        let has f = List.exists f actions in
        Alcotest.(check bool) "broadcast" true
          (has (function
            | Urcgc.Member.Broadcast (Urcgc.Wire.Data _) -> true
            | _ -> false));
        Alcotest.(check bool) "confirmed" true
          (has (function Urcgc.Member.Confirmed _ -> true | _ -> false));
        Alcotest.(check bool) "processed locally" true
          (has (function Urcgc.Member.Processed _ -> true | _ -> false));
        Alcotest.(check int) "own chain advanced" 1
          (Urcgc.Member.last_processed m (node 1)));
    Alcotest.test_case "one message per round, rest stays queued" `Quick
      (fun () ->
        let m = Urcgc.Member.create config (node 1) in
        Urcgc.Member.submit m "a";
        Urcgc.Member.submit m "b";
        ignore (begin_subrun m ~subrun:0);
        Alcotest.(check int) "backlog 1" 1 (Urcgc.Member.sap_backlog m);
        ignore (mid_subrun m ~subrun:0);
        Alcotest.(check int) "backlog 0" 0 (Urcgc.Member.sap_backlog m));
    Alcotest.test_case "data with missing deps goes to the waiting list" `Quick
      (fun () ->
        let m : string Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let msg2 =
          Causal.Causal_msg.make ~mid:(mid 0 2) ~deps:[] ~payload_size:4 "x"
        in
        let actions = handle m (Urcgc.Wire.Data msg2) in
        (match actions with
        | [ Urcgc.Member.Queued (queued_mid, depth) ] ->
            Alcotest.(check bool)
              "queued mid" true
              (Causal.Mid.equal queued_mid (mid 0 2));
            Alcotest.(check int) "depth after add" 1 depth
        | _ -> Alcotest.fail "expected a single Queued action");
        Alcotest.(check int) "waiting" 1 (Urcgc.Member.waiting_length m);
        (* The gap fills: both process in order. *)
        let msg1 =
          Causal.Causal_msg.make ~mid:(mid 0 1) ~deps:[] ~payload_size:4 "y"
        in
        let actions = handle m (Urcgc.Wire.Data msg1) in
        let processed =
          List.filter_map
            (function
              | Urcgc.Member.Processed p -> Some (Causal.Mid.seq p.Causal.Causal_msg.mid)
              | _ -> None)
            actions
        in
        Alcotest.(check (list int)) "1 then 2" [ 1; 2 ] processed;
        Alcotest.(check int) "waiting empty" 0 (Urcgc.Member.waiting_length m));
    Alcotest.test_case "duplicate data is ignored" `Quick (fun () ->
        let m : string Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let msg1 =
          Causal.Causal_msg.make ~mid:(mid 0 1) ~deps:[] ~payload_size:4 "y"
        in
        ignore (handle m (Urcgc.Wire.Data msg1));
        let actions = handle m (Urcgc.Wire.Data msg1) in
        Alcotest.(check int) "nothing" 0 (List.length actions);
        Alcotest.(check int) "processed once" 1 (Urcgc.Member.processed_count m));
    Alcotest.test_case "suicide on a decision that declares us crashed" `Quick
      (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let d0 = Decisions.initial 3 in
        let d =
          {
            d0 with
            Urcgc.Decision.subrun = 0;
            alive = [| true; false; true |];
          }
        in
        let actions = handle m (Urcgc.Wire.Decision_pdu d) in
        Alcotest.(check bool) "left" true
          (List.exists
             (function
               | Urcgc.Member.Left Urcgc.Member.Declared_crashed -> true
               | _ -> false)
             actions);
        Alcotest.(check bool) "inactive" false (Urcgc.Member.active m));
    Alcotest.test_case "full-group decision purges the history" `Quick
      (fun () ->
        let m : string Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        List.iter
          (fun s ->
            ignore
              (handle m
                 (Urcgc.Wire.Data
                    (Causal.Causal_msg.make ~mid:(mid 0 s) ~deps:[]
                       ~payload_size:4 "m"))))
          [ 1; 2; 3 ];
        Alcotest.(check int) "3 in history" 3 (Urcgc.Member.history_length m);
        let d0 = Decisions.initial 3 in
        let d =
          {
            d0 with
            Urcgc.Decision.subrun = 0;
            full_group = true;
            stable = [| 2; 0; 0 |];
          }
        in
        ignore (handle m (Urcgc.Wire.Decision_pdu d));
        Alcotest.(check int) "purged to 1" 1 (Urcgc.Member.history_length m));
    Alcotest.test_case "stale decision does not regress state" `Quick (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let d0 = Decisions.initial 3 in
        let newer = { d0 with Urcgc.Decision.subrun = 5 } in
        let older = { d0 with Urcgc.Decision.subrun = 2 } in
        ignore (handle m (Urcgc.Wire.Decision_pdu newer));
        ignore (handle m (Urcgc.Wire.Decision_pdu older));
        Alcotest.(check int) "kept newer" 5
          (Urcgc.Member.latest_decision m).Urcgc.Decision.subrun);
    Alcotest.test_case "recovery request targets the most updated process"
      `Quick (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let d0 = Decisions.initial 3 in
        let d =
          {
            d0 with
            Urcgc.Decision.subrun = 0;
            max_processed = [| 4; 0; 0 |];
            most_updated = [| node 2; node 1; node 2 |];
          }
        in
        ignore (handle m (Urcgc.Wire.Decision_pdu d));
        let actions = begin_subrun m ~subrun:1 in
        let recover =
          find_map
            (function
              | Urcgc.Member.Send (dst, Urcgc.Wire.Recover_req r) ->
                  Some (dst, r)
              | _ -> None)
            actions
        in
        match recover with
        | Some (dst, r) ->
            Alcotest.(check int) "to p2" 2 (Net.Node_id.to_int dst);
            Alcotest.(check int) "from 1" 1 r.Urcgc.Wire.from_seq;
            Alcotest.(check int) "to 4" 4 r.Urcgc.Wire.to_seq
        | None -> Alcotest.fail "no recovery request");
    Alcotest.test_case "recover_req answered from history" `Quick (fun () ->
        let m : string Urcgc.Member.t = Urcgc.Member.create config (node 2) in
        List.iter
          (fun s ->
            ignore
              (handle m
                 (Urcgc.Wire.Data
                    (Causal.Causal_msg.make ~mid:(mid 0 s) ~deps:[]
                       ~payload_size:4 "m"))))
          [ 1; 2; 3 ];
        let actions =
          handle m
            (Urcgc.Wire.Recover_req
               { requester = node 1; origin = node 0; from_seq = 2; to_seq = 3 })
        in
        match
          find_map
            (function
              | Urcgc.Member.Send (dst, Urcgc.Wire.Recover_reply r) ->
                  Some (dst, r)
              | _ -> None)
            actions
        with
        | Some (dst, reply) ->
            Alcotest.(check int) "to requester" 1 (Net.Node_id.to_int dst);
            Alcotest.(check int) "2 messages" 2
              (List.length reply.Urcgc.Wire.messages)
        | None -> Alcotest.fail "no recover reply");
    Alcotest.test_case "prolonged decision silence makes the process leave"
      `Quick (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        (* silence_limit = 2k = 4 subruns without any decision *)
        let left = ref false in
        for s = 0 to 5 do
          let actions = begin_subrun m ~subrun:s in
          if
            List.exists
              (function
                | Urcgc.Member.Left Urcgc.Member.Decision_silence -> true
                | _ -> false)
              actions
          then left := true
        done;
        Alcotest.(check bool) "left" true !left);
    Alcotest.test_case "self-issued decisions never reset the silence clock"
      `Quick (fun () ->
        (* A decision the process coordinated alone is not evidence of any
           other live process: feeding one per subrun must not postpone the
           [Decision_silence] departure by a single subrun. *)
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let self_decision subrun =
          { (Decisions.initial 3) with Urcgc.Decision.subrun;
            coordinator = node 1 }
        in
        let left_at = ref None in
        let s = ref 0 in
        while Urcgc.Member.active m && !s <= 6 do
          let actions = begin_subrun m ~subrun:!s in
          if
            List.exists
              (function
                | Urcgc.Member.Left Urcgc.Member.Decision_silence -> true
                | _ -> false)
              actions
          then left_at := Some !s
          else
            ignore
              (handle m (Urcgc.Wire.Decision_pdu (self_decision !s)));
          incr s
        done;
        (* silence_limit = 2k = 4: the counter first increments at subrun 1
           (subrun 0 is the very first) and reaches the limit at subrun 4. *)
        Alcotest.(check (option int)) "left at exactly silence_limit" (Some 4)
          !left_at);
    Alcotest.test_case "peer-issued decisions do reset the silence clock"
      `Quick (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 2) in
        let peer_decision subrun =
          { (Decisions.initial 3) with Urcgc.Decision.subrun;
            coordinator = node 0 }
        in
        for s = 0 to 7 do
          let actions = begin_subrun m ~subrun:s in
          Alcotest.(check bool)
            (Printf.sprintf "still active at subrun %d" s)
            false
            (List.exists
               (function Urcgc.Member.Left _ -> true | _ -> false)
               actions);
          ignore
            (handle m (Urcgc.Wire.Decision_pdu (peer_decision s)))
        done;
        Alcotest.(check bool) "active past 2x the limit" true
          (Urcgc.Member.active m));
    Alcotest.test_case "coordinating alone is not evidence of life" `Quick
      (fun () ->
        (* p1 coordinates subrun 1 with no pending peer requests: the
           decision it computes aggregates only its own state and must not
           touch the silence counter. *)
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let left_at = ref None in
        let s = ref 0 in
        while Urcgc.Member.active m && !s <= 6 do
          let actions = begin_subrun m ~subrun:!s in
          if
            List.exists
              (function
                | Urcgc.Member.Left Urcgc.Member.Decision_silence -> true
                | _ -> false)
              actions
          then left_at := Some !s
          else if !s = 1 then ignore (mid_subrun m ~subrun:1);
          incr s
        done;
        Alcotest.(check (option int)) "solo coordination bought no time"
          (Some 4) !left_at);
    Alcotest.test_case "aggregating a peer's request is evidence of life"
      `Quick (fun () ->
        (* Same schedule as above, but p0's request reaches p1 before it
           coordinates subrun 1: the decision now proves another process is
           alive, so the counter resets and departure moves out to subrun
           1 + 1 + silence_limit = 6. *)
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let left_at = ref None in
        let s = ref 0 in
        while Urcgc.Member.active m && !s <= 8 do
          let actions = begin_subrun m ~subrun:!s in
          if
            List.exists
              (function
                | Urcgc.Member.Left Urcgc.Member.Decision_silence -> true
                | _ -> false)
              actions
          then left_at := Some !s
          else if !s = 1 then begin
            ignore
              (handle m
                 (Urcgc.Wire.Request (request ~sender:0 ~subrun:1 ~prev:(Decisions.initial 3) 3)));
            ignore (mid_subrun m ~subrun:1)
          end;
          incr s
        done;
        Alcotest.(check (option int)) "the peer request reset the clock"
          (Some 6) !left_at);
    Alcotest.test_case "a solo view departs as partitioned" `Quick (fun () ->
        (* Primary-partition discipline: adopting a view that contains only
           yourself (while n > 1) means the rest of the group is gone or
           unreachable — depart instead of self-coordinating. *)
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        ignore (begin_subrun m ~subrun:0);
        let solo =
          { (Decisions.initial 3) with Urcgc.Decision.subrun = 0;
            coordinator = node 0; alive = [| false; true; false |] }
        in
        let actions = handle m (Urcgc.Wire.Decision_pdu solo) in
        Alcotest.(check bool) "left partitioned" true
          (List.exists
             (function
               | Urcgc.Member.Left Urcgc.Member.Partitioned -> true
               | _ -> false)
             actions);
        Alcotest.(check bool) "inactive" false (Urcgc.Member.active m);
        (* The trace oracle in [Sim.Analysis] matches this string verbatim:
           keep them in lock step. *)
        match Urcgc.Member.left_reason m with
        | Some r ->
            Alcotest.(check string) "reason string" "partitioned (solo view)"
              (Urcgc.Member.reason_to_string r)
        | None -> Alcotest.fail "no departure recorded");
    Alcotest.test_case "generation emits broadcast, cascade order, confirm"
      `Quick (fun () ->
        (* Pins the exact emission order of [generate_data]: the broadcast
           first, then every [Processed] in causal processing order (own
           message, then the waiting messages it unblocked), and the
           [Confirmed] last — the order the rev-accumulating cascade must
           preserve. *)
        let m : string Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        (* p0#1 depends on our not-yet-sent p1#1: it waits. *)
        let blocked =
          Causal.Causal_msg.make ~mid:(mid 0 1) ~deps:[ mid 1 1 ]
            ~payload_size:4 "x"
        in
        ignore (handle m (Urcgc.Wire.Data blocked));
        Alcotest.(check int) "waiting" 1 (Urcgc.Member.waiting_length m);
        Urcgc.Member.submit m "mine";
        let actions = begin_subrun m ~subrun:0 in
        let data_order =
          List.filter_map
            (function
              | Urcgc.Member.Broadcast (Urcgc.Wire.Data d) ->
                  Some ("broadcast", d.Causal.Causal_msg.mid)
              | Urcgc.Member.Processed p ->
                  Some ("processed", p.Causal.Causal_msg.mid)
              | Urcgc.Member.Confirmed c -> Some ("confirmed", c)
              | _ -> None)
            actions
        in
        let expected =
          [
            ("broadcast", mid 1 1);
            ("processed", mid 1 1);
            ("processed", mid 0 1);
            ("confirmed", mid 1 1);
          ]
        in
        Alcotest.(check (list (pair string (testable Causal.Mid.pp Causal.Mid.equal))))
          "emission order" expected data_order);
    Alcotest.test_case "orphan discards come out origin-ascending" `Quick
      (fun () ->
        (* Pins the discard emission order of [Gmt.purge]: one
           [Discarded] action, origins ascending, each origin's mids in
           waiting order. *)
        let config = Urcgc.Config.make ~n:4 ~k:2 () in
        let m : string Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        List.iter
          (fun (o, s) ->
            ignore
              (handle m
                 (Urcgc.Wire.Data
                    (Causal.Causal_msg.make ~mid:(mid o s) ~deps:[]
                       ~payload_size:4 "w"))))
          [ (2, 2); (0, 2); (0, 3) ];
        Alcotest.(check int) "three waiting" 3 (Urcgc.Member.waiting_length m);
        (* Full-group decision: p0 and p2 are gone, nobody processed their
           seq 1, and messages from seq 2 up are waiting — orphans. *)
        let d0 = Decisions.initial 4 in
        let d =
          {
            d0 with
            Urcgc.Decision.subrun = 0;
            coordinator = node 3;
            full_group = true;
            alive = [| false; true; false; true |];
            min_waiting = [| 2; 0; 2; 0 |];
          }
        in
        let actions = handle m (Urcgc.Wire.Decision_pdu d) in
        let discards =
          List.filter_map
            (function Urcgc.Member.Discarded mids -> Some mids | _ -> None)
            actions
        in
        match discards with
        | [ mids ] ->
            Alcotest.(check (list (testable Causal.Mid.pp Causal.Mid.equal)))
              "origins ascending, waiting order within"
              [ mid 0 2; mid 0 3; mid 2 2 ]
              mids
        | _ -> Alcotest.fail "expected exactly one Discarded action");
    Alcotest.test_case "flow control blocks generation at the threshold" `Quick
      (fun () ->
        let config = Urcgc.Config.make ~n:3 ~k:2 ~flow_threshold:(Some 2) () in
        let m = Urcgc.Member.create config (node 1) in
        List.iter
          (fun s ->
            ignore
              (handle m
                 (Urcgc.Wire.Data
                    (Causal.Causal_msg.make ~mid:(mid 0 s) ~deps:[]
                       ~payload_size:4 "m"))))
          [ 1; 2 ];
        Urcgc.Member.submit m "blocked";
        let actions = begin_subrun m ~subrun:0 in
        Alcotest.(check bool) "no data broadcast" false
          (List.exists
             (function
               | Urcgc.Member.Broadcast (Urcgc.Wire.Data _) -> true
               | _ -> false)
             actions);
        Alcotest.(check bool) "flow blocked" true (Urcgc.Member.flow_blocked m);
        Alcotest.(check int) "still queued" 1 (Urcgc.Member.sap_backlog m));
    Alcotest.test_case "explicit unprocessed dependency is rejected" `Quick
      (fun () ->
        let m = Urcgc.Member.create config (node 1) in
        Urcgc.Member.submit ~deps:[ mid 0 3 ] m "bad";
        Alcotest.(check bool) "raises" true
          (try
             ignore (begin_subrun m ~subrun:0);
             false
           with Invalid_argument _ -> true));
  ]

(* -- end-to-end scenarios ------------------------------------------------ *)

let run ?(n = 6) ?(k = 3) ?(rate = 0.5) ?(messages = 60) ?flow_threshold
    ?(fault = Net.Fault.reliable) ?(seed = 42) ?(max_rtd = 200.0) () =
  let config = Urcgc.Config.make ~k ?flow_threshold ~n () in
  let load = Workload.Load.make ~rate ~total_messages:messages () in
  let scenario =
    Workload.Scenario.make ~name:"test" ~fault ~seed ~max_rtd ~config ~load ()
  in
  Workload.Runner.run scenario

let crash_spec crashes =
  Net.Fault.with_crashes
    (List.map
       (fun (i, subrun) ->
         (node i, Sim.Ticks.of_int ((subrun * Sim.Ticks.per_rtd) + 1)))
       crashes)
    Net.Fault.reliable

let check_verdict report =
  let v = report.Workload.Runner.verdict in
  if not (Workload.Checker.ok v) then
    Alcotest.failf "invariants violated: %s"
      (String.concat "; " v.Workload.Checker.violations)

let e2e_tests =
  [
    Alcotest.test_case "reliable run: everything delivered in causal order"
      `Slow (fun () ->
        let report = run () in
        check_verdict report;
        Alcotest.(check int) "all generated" 60 report.Workload.Runner.generated;
        Alcotest.(check int) "delivered everywhere" (60 * 5)
          report.Workload.Runner.delivered_remote;
        Alcotest.(check bool) "D >= 1/2 rtd... roughly one-way latency" true
          (Workload.Runner.mean_delay_rtd report >= 0.35));
    Alcotest.test_case "deterministic: same seed, same outcome" `Slow (fun () ->
        let a = run ~seed:7 () and b = run ~seed:7 () in
        Alcotest.(check int) "generated" a.Workload.Runner.generated
          b.Workload.Runner.generated;
        Alcotest.(check int) "control msgs" a.Workload.Runner.control_msgs
          b.Workload.Runner.control_msgs;
        Alcotest.(check (float 1e-12)) "delay"
          (Workload.Runner.mean_delay_rtd a)
          (Workload.Runner.mean_delay_rtd b));
    Alcotest.test_case "different seeds differ" `Slow (fun () ->
        let a = run ~seed:7 () and b = run ~seed:8 () in
        Alcotest.(check bool) "some difference" true
          (a.Workload.Runner.control_bytes <> b.Workload.Runner.control_bytes
          || Workload.Runner.mean_delay_rtd a <> Workload.Runner.mean_delay_rtd b));
    Alcotest.test_case "control traffic matches 2(n-1) per subrun" `Slow
      (fun () ->
        let report = run ~n:8 () in
        check_verdict report;
        let per_subrun = Workload.Runner.control_msgs_per_subrun report in
        let expected =
          float_of_int (Stats.Analytic.urcgc_control_msgs_reliable ~n:8)
        in
        Alcotest.(check bool) "within 15%" true
          (Float.abs (per_subrun -. expected) /. expected < 0.15));
    Alcotest.test_case "server crash: survivors stay consistent, no delay hit"
      `Slow (fun () ->
        let report = run ~fault:(crash_spec [ (2, 4) ]) () in
        check_verdict report;
        Alcotest.(check bool) "delay still low" true
          (Workload.Runner.mean_delay_rtd report < 0.6);
        Alcotest.(check bool) "no survivor left the group" true
          (report.Workload.Runner.departures = []));
    Alcotest.test_case "two crashes including a coordinator" `Slow (fun () ->
        (* p0 coordinates subrun 0, 6, 12...; crash it right before one. *)
        let report = run ~fault:(crash_spec [ (0, 5); (3, 7) ]) () in
        check_verdict report);
    Alcotest.test_case "omission failures: recovery kicks in, order holds"
      `Slow (fun () ->
        let report =
          run ~fault:(Net.Fault.omission_every 100) ~messages:100 ()
        in
        check_verdict report;
        Alcotest.(check bool) "recovery traffic present" true
          (report.Workload.Runner.recovery_msgs > 0));
    Alcotest.test_case "general omission: crash + loss together" `Slow
      (fun () ->
        let fault =
          Net.Fault.with_crashes
            [ (node 1, Sim.Ticks.of_int 401) ]
            (Net.Fault.omission_every 200)
        in
        let report = run ~fault ~messages:80 () in
        check_verdict report);
    Alcotest.test_case "flow control bounds the history" `Slow (fun () ->
        let n = 6 in
        let report =
          run ~n ~rate:1.0 ~messages:200 ~flow_threshold:(Some (8 * n))
            ~fault:(crash_spec [ (1, 2) ])
            ()
        in
        check_verdict report;
        (* One subrun of slack: generation happens before cleaning. *)
        Alcotest.(check bool) "bounded by threshold + slack" true
          (report.Workload.Runner.history_peak <= (8 * n) + (2 * n)));
    Alcotest.test_case "history stays near 2n without failures" `Slow (fun () ->
        (* The paper's Figure 6 assumption: up to one message per round is
           generated group-wide, and then "no more than 2n messages are
           stored in the history". *)
        let report = run ~n:8 ~rate:0.125 ~messages:60 () in
        check_verdict report;
        Alcotest.(check bool) "history peak within 2n" true
          (report.Workload.Runner.history_peak
          <= Stats.Analytic.urcgc_history_bound_reliable ~n:8));
    Alcotest.test_case "crashed process's unseen tail is not required" `Slow
      (fun () ->
        (* p2 generates alone and crashes mid-run; survivors must converge. *)
        let config = Urcgc.Config.make ~k:2 ~n:5 () in
        let load =
          Workload.Load.make ~rate:1.0 ~total_messages:30
            ~senders:[ node 2 ] ()
        in
        let scenario =
          Workload.Scenario.make ~name:"orphan" ~fault:(crash_spec [ (2, 5) ])
            ~seed:11 ~max_rtd:120.0 ~config ~load ()
        in
        let report = Workload.Runner.run scenario in
        check_verdict report);
  ]

(* Random-scenario property: invariants hold across seeds, fault mixes,
   mountings (datagram / transport), and the codec boundary. *)
let e2e_property =
  QCheck.Test.make ~name:"urcgc invariants hold on random scenarios" ~count:15
    QCheck.(
      pair
        (quad (int_range 3 8) (int_range 1 1_000_000) (int_bound 2) (int_bound 1))
        (pair (int_bound 2) QCheck.bool))
    (fun ((n, seed, crashes, omission), (mount_pick, codec_boundary)) ->
      let fault =
        let base =
          if omission = 1 then Net.Fault.omission_every 150
          else Net.Fault.reliable
        in
        let rng = Sim.Rng.create ~seed:(seed + 1) in
        let crash_list =
          List.init (min crashes (n - 2)) (fun i ->
              ( node (Sim.Rng.int rng n),
                Sim.Ticks.of_int (((i + 3) * Sim.Ticks.per_rtd) + 1) ))
        in
        Net.Fault.with_crashes crash_list base
      in
      let mount =
        match mount_pick with
        | 0 -> Workload.Scenario.Datagram
        | 1 -> Workload.Scenario.Transport Urcgc.Medium.All
        | _ -> Workload.Scenario.Transport (Urcgc.Medium.At_least (max 1 (n / 2)))
      in
      let config = Urcgc.Config.make ~k:3 ~n () in
      let load = Workload.Load.make ~rate:0.6 ~total_messages:40 () in
      let scenario =
        Workload.Scenario.make ~name:"prop" ~fault ~mount ~codec_boundary ~seed
          ~max_rtd:150.0 ~config ~load ()
      in
      let report = Workload.Runner.run scenario in
      Workload.Checker.ok report.Workload.Runner.verdict)

let suite =
  [
    ("urcgc.config", config_tests);
    ("urcgc.decision", decision_tests);
    ("urcgc.coordinator", coordinator_tests);
    ("urcgc.member", member_tests);
    ("urcgc.e2e", e2e_tests @ [ QCheck_alcotest.to_alcotest e2e_property ]);
  ]
