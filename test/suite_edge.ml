(* Edge-case coverage that the main suites do not reach: the
   recovery-exhausted departure, coordinator-request handling and emission
   order corners, urgc's recovery path, and CBCAST's stability cut
   soundness. *)

let node n = Net.Node_id.of_int n
let mid o s = Causal.Mid.make ~origin:(node o) ~seq:s

(* One call's emissions, read as a list through [Urcgc.Member.collect]. *)
let begin_subrun m ~subrun =
  Urcgc.Member.collect (Urcgc.Member.begin_subrun m ~subrun)

let mid_subrun m ~subrun =
  Urcgc.Member.collect (Urcgc.Member.mid_subrun m ~subrun)

let handle m body =
  Urcgc.Member.collect (fun sink -> Urcgc.Member.handle m sink body)

(* One line per action, for emission-order checks. *)
let describe : _ Urcgc.Member.action -> string = function
  | Broadcast body -> Format.asprintf "broadcast %a" Urcgc.Wire.pp_body body
  | Send (dst, body) ->
      Format.asprintf "send to %a: %a" Net.Node_id.pp dst Urcgc.Wire.pp_body
        body
  | Processed msg ->
      Format.asprintf "processed %a" Causal.Mid.pp msg.Causal.Causal_msg.mid
  | Confirmed mid -> Format.asprintf "confirmed %a" Causal.Mid.pp mid
  | Discarded mids ->
      Format.asprintf "discarded %a"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Causal.Mid.pp)
        mids
  | Queued (mid, depth) ->
      Format.asprintf "queued %a at depth %d" Causal.Mid.pp mid depth
  | Left why -> "left " ^ Urcgc.Member.reason_to_string why

let member_edge_tests =
  let config = Urcgc.Config.make ~n:3 ~k:2 ~r:3 () in
  [
    Alcotest.test_case
      "R failed recovery attempts make the process leave (Lemma 4.2)" `Quick
      (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        (* A decision says p2 processed 4 messages of p0 that we miss; our
           recovery requests go unanswered (we never feed replies). *)
        let d0 = Urcgc.Decision.initial ~n:3 in
        let d =
          {
            d0 with
            Urcgc.Decision.subrun = 0;
            max_processed = [| 4; 0; 0 |];
            most_updated = [| node 2; node 1; node 2 |];
          }
        in
        ignore (handle m (Urcgc.Wire.Decision_pdu d));
        let left = ref None in
        let departing = ref [] in
        (* Keep feeding fresh decisions so silence never triggers first. *)
        let s = ref 1 in
        while !left = None && !s < 12 do
          let actions = begin_subrun m ~subrun:!s in
          List.iter
            (function
              | Urcgc.Member.Left why ->
                  left := Some why;
                  departing := actions
              | _ -> ())
            actions;
          ignore
            (handle m
               (Urcgc.Wire.Decision_pdu { d with Urcgc.Decision.subrun = !s }));
          incr s
        done;
        match !left with
        | Some Urcgc.Member.Recovery_exhausted ->
            (* r = 3: gone by the 4th stalled attempt *)
            Alcotest.(check bool) "left within r+1 subruns" true (!s <= 6);
            (* The stall tracker runs before anything is emitted: the
               departing subrun sends no request, recovery request or
               data. *)
            Alcotest.(check (list string))
              "the departing subrun emits only the departure"
              [ "left recovery exhausted" ]
              (List.map describe !departing)
        | Some other ->
            Alcotest.failf "left for the wrong reason: %s"
              (Urcgc.Member.reason_to_string other)
        | None -> Alcotest.fail "never left");
    Alcotest.test_case "recovery progress resets the attempt counter" `Quick
      (fun () ->
        let m : string Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let d0 = Urcgc.Decision.initial ~n:3 in
        let d =
          {
            d0 with
            Urcgc.Decision.subrun = 0;
            max_processed = [| 3; 0; 0 |];
            most_updated = [| node 2; node 1; node 2 |];
          }
        in
        ignore (handle m (Urcgc.Wire.Decision_pdu d));
        (* Two stalled subruns... *)
        ignore (begin_subrun m ~subrun:1);
        ignore
          (handle m
             (Urcgc.Wire.Decision_pdu { d with Urcgc.Decision.subrun = 1 }));
        ignore (begin_subrun m ~subrun:2);
        ignore
          (handle m
             (Urcgc.Wire.Decision_pdu { d with Urcgc.Decision.subrun = 2 }));
        (* ... then one message arrives: progress. *)
        ignore
          (handle m
             (Urcgc.Wire.Data
                (Causal.Causal_msg.make ~mid:(mid 0 1) ~deps:[] ~payload_size:1
                   "a")));
        (* Two more stalled subruns must NOT reach r = 3 because the counter
           reset on progress. *)
        let left = ref false in
        for s = 3 to 4 do
          ignore
            (handle m
               (Urcgc.Wire.Decision_pdu { d with Urcgc.Decision.subrun = s - 1 }));
          List.iter
            (function Urcgc.Member.Left _ -> left := true | _ -> ())
            (begin_subrun m ~subrun:s)
        done;
        Alcotest.(check bool) "still in the group" false !left);
    Alcotest.test_case "requests for another subrun are ignored" `Quick
      (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 0) in
        ignore (begin_subrun m ~subrun:0);
        let stale =
          {
            Urcgc.Wire.sender = node 1;
            subrun = 99;
            last_processed = [| 0; 0; 0 |];
            waiting = [| None; None; None |];
            prev_decision = Urcgc.Decision.initial ~n:3;
          }
        in
        ignore (handle m (Urcgc.Wire.Request stale));
        (* The decision computed at mid-subrun must not count p1 as heard:
           with K=2 it takes 2 silent subruns to declare, so check attempts. *)
        let actions = mid_subrun m ~subrun:0 in
        let d =
          List.find_map
            (function
              | Urcgc.Member.Broadcast (Urcgc.Wire.Decision_pdu d) -> Some d
              | _ -> None)
            actions
        in
        match d with
        | Some d ->
            Alcotest.(check int) "p1 counted silent" 1
              d.Urcgc.Decision.attempts.(1)
        | None -> Alcotest.fail "no decision");
    Alcotest.test_case "duplicate requests from one sender count once" `Quick
      (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 0) in
        ignore (begin_subrun m ~subrun:0);
        let request =
          {
            Urcgc.Wire.sender = node 1;
            subrun = 0;
            last_processed = [| 0; 0; 0 |];
            waiting = [| None; None; None |];
            prev_decision = Urcgc.Decision.initial ~n:3;
          }
        in
        ignore (handle m (Urcgc.Wire.Request request));
        ignore (handle m (Urcgc.Wire.Request request));
        let actions = mid_subrun m ~subrun:0 in
        match
          List.find_map
            (function
              | Urcgc.Member.Broadcast (Urcgc.Wire.Decision_pdu d) -> Some d
              | _ -> None)
            actions
        with
        | Some d ->
            Alcotest.(check int) "p1 heard once, attempts 0" 0
              d.Urcgc.Decision.attempts.(1)
        | None -> Alcotest.fail "no decision");
    Alcotest.test_case "non-coordinator mid_subrun emits no decision" `Quick
      (fun () ->
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        ignore (begin_subrun m ~subrun:0);
        let actions = mid_subrun m ~subrun:0 in
        Alcotest.(check bool) "no decision" true
          (not
             (List.exists
                (function
                  | Urcgc.Member.Broadcast (Urcgc.Wire.Decision_pdu _) -> true
                  | _ -> false)
                actions)));
  ]

(* Emission order of the coordinator path: a decision goes out before the
   local actions its adoption replays, and not at all if adopting it takes
   the coordinator out of the group. *)
let emission_order_tests =
  let config = Urcgc.Config.make ~n:3 ~k:2 ~r:3 () in
  [
    Alcotest.test_case "the decision broadcast precedes the discards it causes"
      `Quick (fun () ->
        (* p1 coordinates subrun 1 of a 4-group.  The decision of subrun 0
           has p2 silent once and its stability cycle has heard p0 and p3,
           so p1's own request closes a full-group decision that declares
           p2 crashed (K = 2) and orphans p2#2, which waits here behind a
           p2#1 nobody processed. *)
        let config = Urcgc.Config.make ~n:4 ~k:2 () in
        let m : string Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        ignore
          (handle m
             (Urcgc.Wire.Data
                (Causal.Causal_msg.make ~mid:(mid 2 2) ~deps:[] ~payload_size:1
                   "w")));
        let d0 = Urcgc.Decision.initial ~n:4 in
        ignore
          (handle m
             (Urcgc.Wire.Decision_pdu
                {
                  d0 with
                  Urcgc.Decision.subrun = 0;
                  attempts = [| 0; 0; 1; 0 |];
                  heard = [| true; false; false; true |];
                }));
        ignore (begin_subrun m ~subrun:1);
        Alcotest.(check (list string))
          "broadcast, then the adoption's discards"
          [ "broadcast decision subrun 1"; "discarded p2#2" ]
          (List.map describe (mid_subrun m ~subrun:1)));
    Alcotest.test_case "a coordinator departing on its own decision is silent"
      `Quick (fun () ->
        (* p1 coordinates subrun 1 after a decision that has p0 and p2
           silent once: its own decision declares both crashed (K = 2), and
           adopting it leaves p1 alone in its view.  Of the two queued
           payloads, begin_subrun sends one; mid_subrun must send neither
           the decision nor the other. *)
        let m : unit Urcgc.Member.t = Urcgc.Member.create config (node 1) in
        let d0 = Urcgc.Decision.initial ~n:3 in
        ignore
          (handle m
             (Urcgc.Wire.Decision_pdu
                { d0 with Urcgc.Decision.subrun = 0; attempts = [| 1; 0; 1 |] }));
        Urcgc.Member.submit m ();
        Urcgc.Member.submit m ();
        ignore (begin_subrun m ~subrun:1);
        Alcotest.(check (list string))
          "only the departure"
          [ "left partitioned (solo view)" ]
          (List.map describe (mid_subrun m ~subrun:1)));
  ]

let urgc_recovery_tests =
  [
    Alcotest.test_case
      "urgc: data lost to all but its origin is recovered via rotation" `Slow
      (fun () ->
        let engine = Sim.Engine.create () in
        let rng = Sim.Rng.create ~seed:5 in
        let fault =
          Net.Fault.create Net.Fault.reliable ~rng:(Sim.Rng.split rng)
        in
        let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
        let cluster = Urgc.Cluster.create ~n:4 ~k:2 ~net () in
        (* Lose every direct copy of (p3, 1); after its global sequence is
           assigned, p3 processes it alone, and the others must fetch it from
           history once p3 rotates into the coordinator role. *)
        Net.Netsim.set_filter net
          (Some
             (fun packet ->
               match packet.Net.Netsim.payload with
               | Urgc.Total_wire.Data data ->
                   not
                     (Causal.Mid.equal data.Urgc.Total_wire.mid
                        (Causal.Mid.make ~origin:(node 3) ~seq:1))
               | _ -> true));
        Urgc.Cluster.submit cluster (node 3) "precious";
        Urgc.Cluster.submit cluster (node 0) "other";
        Urgc.Cluster.start cluster;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 30.0);
        Alcotest.(check bool) "total order holds" true
          (Urgc.Cluster.total_order_ok cluster);
        List.iter
          (fun member ->
            Alcotest.(check int) "both processed everywhere" 2
              (Urgc.Member.processed_upto member))
          (Urgc.Cluster.members cluster));
  ]

let cbcast_stability_tests =
  [
    Alcotest.test_case
      "the published stable cut never exceeds any member's delivered vector"
      `Slow (fun () ->
        let n = 6 and k = 3 in
        let engine = Sim.Engine.create () in
        let rng = Sim.Rng.create ~seed:23 in
        let fault =
          Net.Fault.create Net.Fault.reliable ~rng:(Sim.Rng.split rng)
        in
        let cluster =
          Cbcast.Cluster.create ~n ~k ~engine ~fault ~rng:(Sim.Rng.split rng) ()
        in
        let produced = ref 0 in
        Cbcast.Cluster.on_round cluster (fun ~round:_ ->
            List.iter
              (fun nd ->
                if !produced < 60 && Sim.Rng.bool rng 0.5 then begin
                  incr produced;
                  Cbcast.Cluster.submit cluster nd !produced
                end)
              (Net.Node_id.group n));
        (* Invariant sampled continuously: anything a member garbage-collects
           as stable must be delivered at every member.  Unstable counts can
           only shrink to zero at quiescence. *)
        Cbcast.Cluster.start cluster;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 40.0);
        let members = Cbcast.Cluster.members cluster in
        Alcotest.(check bool) "all drained, history gc'd" true
          (List.for_all
             (fun member -> Cbcast.Member.unstable member <= 1 * n)
             members);
        let vts = List.map Cbcast.Member.delivered_vt members in
        match vts with
        | first :: rest ->
            Alcotest.(check bool) "vectors agree at quiescence" true
              (List.for_all (fun vt -> Cbcast.Vclock.equal vt first) rest)
        | [] -> ());
  ]

let suite =
  [
    ("urcgc.member_edge", member_edge_tests);
    ("urcgc.emission_order_rules", emission_order_tests);
    ("urgc.recovery", urgc_recovery_tests);
    ("cbcast.stability", cbcast_stability_tests);
  ]
