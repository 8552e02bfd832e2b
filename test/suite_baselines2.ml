(* Deeper baseline coverage: CBCAST's flush takeover when the flush
   coordinator itself crashes, and Psync's recovery/mask handshakes at the
   member level. *)

let node n = Net.Node_id.of_int n

let cbcast_takeover_tests =
  [
    Alcotest.test_case
      "flush coordinator crash: next-ranked member takes over" `Slow (fun () ->
        let n = 8 and k = 2 in
        let engine = Sim.Engine.create () in
        let rng = Sim.Rng.create ~seed:11 in
        (* p7 crashes to trigger the view change; p0, the ranked flush
           coordinator, crashes shortly after starting the flush. *)
        let crashes =
          [
            (node 7, Sim.Ticks.of_int ((3 * Sim.Ticks.per_rtd) + 1));
            (node 0, Sim.Ticks.of_int ((3 + k) * Sim.Ticks.per_rtd + 10));
          ]
        in
        let fault =
          Net.Fault.create
            (Net.Fault.with_crashes crashes Net.Fault.reliable)
            ~rng:(Sim.Rng.split rng)
        in
        let cluster =
          Cbcast.Cluster.create ~n ~k ~engine ~fault ~rng:(Sim.Rng.split rng) ()
        in
        let produced = ref 0 in
        Cbcast.Cluster.on_round cluster (fun ~round:_ ->
            if !produced < 60 then
              List.iter
                (fun node ->
                  if Sim.Rng.bool rng 0.4 then begin
                    incr produced;
                    Cbcast.Cluster.submit cluster node !produced
                  end)
                (Net.Node_id.group n));
        Cbcast.Cluster.start cluster;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 80.0);
        (* A view excluding both crashed processes must eventually install at
           every survivor. *)
        let survivors = List.init 6 (fun i -> i + 1) in
        let final_views =
          List.filter
            (fun (vc : Cbcast.Cluster.view_change) ->
              (not vc.members.(7)) && not vc.members.(0))
            (Cbcast.Cluster.view_changes cluster)
        in
        let installed_at =
          List.sort_uniq compare
            (List.map
               (fun (vc : Cbcast.Cluster.view_change) ->
                 Net.Node_id.to_int vc.at_node)
               final_views)
        in
        Alcotest.(check (list int)) "all survivors installed it" survivors
          installed_at;
        (* And the system recovered: survivors agree on delivered vectors. *)
        let vts =
          List.map
            (fun i ->
              Cbcast.Member.delivered_vt
                (Cbcast.Cluster.member cluster (node i)))
            survivors
        in
        match vts with
        | first :: rest ->
            Alcotest.(check bool) "vectors agree" true
              (List.for_all (fun vt -> Cbcast.Vclock.equal vt first) rest)
        | [] -> Alcotest.fail "no survivors");
  ]

let psync_member_tests =
  [
    Alcotest.test_case "missing predecessor triggers a retransmission request"
      `Quick (fun () ->
        let m : string Psync.Member.t =
          Psync.Member.create ~n:4 ~k:2 (node 1)
        in
        let dangling =
          {
            Psync.Context_graph.mid = { sender = node 2; seq = 2 };
            preds = [ { Psync.Context_graph.sender = node 2; seq = 1 } ];
            payload = "x";
            payload_size = 1;
          }
        in
        ignore (Psync.Member.handle m ~subrun:0 ~from:(node 2) (Psync.Wire.Msg dangling));
        Alcotest.(check int) "pending" 1 (Psync.Member.pending m);
        let actions = Psync.Member.on_round m ~subrun:1 in
        let req =
          List.find_map
            (function
              | Psync.Member.Unicast (dst, Psync.Wire.Retrans_req { wanted; _ })
                ->
                  Some (dst, wanted)
              | _ -> None)
            actions
        in
        match req with
        | Some (dst, wanted) ->
            Alcotest.(check int) "asks the sender" 2 (Net.Node_id.to_int dst);
            Alcotest.(check int) "for seq 1" 1 wanted.Psync.Context_graph.seq
        | None -> Alcotest.fail "no retransmission request");
    Alcotest.test_case "retransmission target rotates after K failures" `Quick
      (fun () ->
        let m : string Psync.Member.t =
          Psync.Member.create ~n:4 ~k:2 (node 1)
        in
        let dangling =
          {
            Psync.Context_graph.mid = { sender = node 2; seq = 2 };
            preds = [ { Psync.Context_graph.sender = node 2; seq = 1 } ];
            payload = "x";
            payload_size = 1;
          }
        in
        ignore (Psync.Member.handle m ~subrun:0 ~from:(node 2) (Psync.Wire.Msg dangling));
        let targets = ref [] in
        for s = 1 to 6 do
          List.iter
            (function
              | Psync.Member.Unicast (dst, Psync.Wire.Retrans_req _) ->
                  targets := Net.Node_id.to_int dst :: !targets
              | _ -> ())
            (Psync.Member.on_round m ~subrun:s)
        done;
        let distinct = List.sort_uniq compare !targets in
        Alcotest.(check bool) "asked more than one process" true
          (List.length distinct > 1));
    Alcotest.test_case "retrans_req answered from the graph" `Quick (fun () ->
        let m : string Psync.Member.t =
          Psync.Member.create ~n:4 ~k:2 (node 2)
        in
        Psync.Member.submit m "mine";
        ignore (Psync.Member.on_round m ~subrun:0);
        let actions =
          Psync.Member.handle m ~subrun:1 ~from:(node 1)
            (Psync.Wire.Retrans_req
               {
                 requester = node 1;
                 wanted = { Psync.Context_graph.sender = node 2; seq = 1 };
               })
        in
        Alcotest.(check bool) "replied" true
          (List.exists
             (function
               | Psync.Member.Unicast (dst, Psync.Wire.Retrans_reply _) ->
                   Net.Node_id.to_int dst = 1
               | _ -> false)
             actions));
    Alcotest.test_case "mask_out handshake excludes the target" `Quick
      (fun () ->
        let m : string Psync.Member.t =
          Psync.Member.create ~n:4 ~k:2 (node 1)
        in
        (* Initiator p0 announces the exclusion of p3. *)
        let actions =
          Psync.Member.handle m ~subrun:5 ~from:(node 0)
            (Psync.Wire.Mask_out { target = node 3; initiator = node 0 })
        in
        Alcotest.(check bool) "acked" true
          (List.exists
             (function
               | Psync.Member.Unicast (dst, Psync.Wire.Mask_ack _) ->
                   Net.Node_id.to_int dst = 0
               | _ -> false)
             actions);
        Alcotest.(check bool) "blocked while agreeing" true
          (Psync.Member.masking m);
        ignore
          (Psync.Member.handle m ~subrun:6 ~from:(node 0)
             (Psync.Wire.Mask_done { target = node 3 }));
        Alcotest.(check bool) "unblocked" false (Psync.Member.masking m);
        Alcotest.(check bool) "p3 out" false (Psync.Member.participants m).(3));
    Alcotest.test_case "being masked out halts the member" `Quick (fun () ->
        let m : string Psync.Member.t =
          Psync.Member.create ~n:4 ~k:2 (node 3)
        in
        ignore
          (Psync.Member.handle m ~subrun:5 ~from:(node 0)
             (Psync.Wire.Mask_out { target = node 3; initiator = node 0 }));
        Alcotest.(check bool) "inactive" false (Psync.Member.active m);
        Alcotest.(check int) "silent afterwards" 0
          (List.length (Psync.Member.on_round m ~subrun:6)));
  ]

let recover_cap_tests =
  [
    Alcotest.test_case "urcgc recover replies are capped per PDU" `Quick
      (fun () ->
        let config = Urcgc.Config.make ~n:3 ~k:2 () in
        let m : int Urcgc.Member.t = Urcgc.Member.create config (node 2) in
        for s = 1 to 100 do
          let data =
            Urcgc.Wire.Data
              (Causal.Causal_msg.make
                 ~mid:(Causal.Mid.make ~origin:(node 0) ~seq:s)
                 ~deps:[] ~payload_size:8 s)
          in
          ignore
            (Urcgc.Member.collect (fun sink -> Urcgc.Member.handle m sink data))
        done;
        let req =
          Urcgc.Wire.Recover_req
            { requester = node 1; origin = node 0; from_seq = 1; to_seq = 100 }
        in
        let actions =
          Urcgc.Member.collect (fun sink -> Urcgc.Member.handle m sink req)
        in
        match
          List.find_map
            (function
              | Urcgc.Member.Send (_, Urcgc.Wire.Recover_reply r) -> Some r
              | _ -> None)
            actions
        with
        | Some reply ->
            Alcotest.(check int) "64 messages max" 64
              (List.length reply.Urcgc.Wire.messages)
        | None -> Alcotest.fail "no reply");
  ]

let suite =
  [
    ("cbcast.takeover", cbcast_takeover_tests);
    ("psync.member", psync_member_tests);
    ("urcgc.recover_cap", recover_cap_tests);
  ]
