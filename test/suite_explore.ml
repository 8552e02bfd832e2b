(* The bounded schedule explorer: the generic Sim.Explore search driver,
   the Workload.Explore harness, pruning soundness against brute force,
   byte-stable committed expectations, and rediscovery of campaign-found
   failures. *)

module E = Sim.Explore
module WE = Workload.Explore

(* ---- Sim.Explore: the generic driver ---------------------------------- *)

(* A synthetic harness with a static shape: three choice points of arities
   2, 3, 2 — 12 schedules. *)
let static_harness ctx =
  let a = E.Ctx.choose ~arity:2 ~label:(fun () -> "a") ctx in
  let b = E.Ctx.choose ~arity:3 ~label:(fun () -> "b") ctx in
  let c = E.Ctx.choose ~arity:2 ~label:(fun () -> "c") ctx in
  (100 * a) + (10 * b) + c

let driver_tests =
  [
    Alcotest.test_case "enumerates the full static tree" `Quick (fun () ->
        let seen = ref [] in
        let stats =
          E.explore static_harness ~on_schedule:(fun ~schedule:_ r ->
              seen := r :: !seen)
        in
        Alcotest.(check int) "explored" 12 stats.E.explored;
        Alcotest.(check int) "pruned" 0 stats.E.pruned;
        Alcotest.(check int) "total" 12 stats.E.total;
        Alcotest.(check int) "max_depth" 3 stats.E.max_depth;
        Alcotest.(check bool) "truncated" false stats.E.truncated;
        let sorted = List.sort compare !seen in
        Alcotest.(check int) "distinct results" 12
          (List.length (List.sort_uniq compare sorted)));
    Alcotest.test_case "dynamic tree shape follows earlier choices" `Quick
      (fun () ->
        (* The second choice point exists only on branch a = 1; schedules
           are [0] and [1; 0], [1; 1]. *)
        let harness ctx =
          let a = E.Ctx.choose ~arity:2 ~label:(fun () -> "a") ctx in
          if a = 0 then 0
          else 10 + E.Ctx.choose ~arity:2 ~label:(fun () -> "b") ctx
        in
        let schedules = ref [] in
        let stats =
          E.explore harness ~on_schedule:(fun ~schedule _ ->
              schedules := schedule :: !schedules)
        in
        Alcotest.(check int) "explored" 3 stats.E.explored;
        Alcotest.(check (list (list int)))
          "schedules in depth-first order"
          [ [ 0 ]; [ 1; 0 ]; [ 1; 1 ] ]
          (List.rev !schedules));
    Alcotest.test_case "allowed prunes branches and counts them" `Quick
      (fun () ->
        let harness ctx =
          E.Ctx.choose ~arity:4
            ~allowed:(fun i -> i mod 2 = 0)
            ~label:(fun () -> "even only")
            ctx
        in
        let stats = E.explore harness ~on_schedule:(fun ~schedule:_ _ -> ()) in
        Alcotest.(check int) "explored" 2 stats.E.explored;
        Alcotest.(check int) "pruned" 2 stats.E.pruned;
        Alcotest.(check int) "total" 4 stats.E.total);
    Alcotest.test_case "prune:false ignores allowed" `Quick (fun () ->
        let harness ctx =
          E.Ctx.choose ~arity:4
            ~allowed:(fun i -> i = 0)
            ~label:(fun () -> "first only")
            ctx
        in
        let stats =
          E.explore ~prune:false harness ~on_schedule:(fun ~schedule:_ _ -> ())
        in
        Alcotest.(check int) "explored" 4 stats.E.explored;
        Alcotest.(check int) "pruned" 0 stats.E.pruned);
    Alcotest.test_case "empty allowed set still explores alternative 0" `Quick
      (fun () ->
        let harness ctx =
          E.Ctx.choose ~arity:3
            ~allowed:(fun _ -> false)
            ~label:(fun () -> "none")
            ctx
        in
        let results = ref [] in
        let stats =
          E.explore harness ~on_schedule:(fun ~schedule:_ r ->
              results := r :: !results)
        in
        Alcotest.(check int) "explored" 1 stats.E.explored;
        Alcotest.(check int) "pruned" 2 stats.E.pruned;
        Alcotest.(check (list int)) "took alternative 0" [ 0 ] !results);
    Alcotest.test_case "max_schedules truncates" `Quick (fun () ->
        let stats =
          E.explore ~max_schedules:5 static_harness
            ~on_schedule:(fun ~schedule:_ _ -> ())
        in
        Alcotest.(check int) "explored" 5 stats.E.explored;
        Alcotest.(check bool) "truncated" true stats.E.truncated);
    Alcotest.test_case "replay follows the schedule and logs labels" `Quick
      (fun () ->
        let result, steps = E.replay static_harness ~schedule:[ 1; 2; 0 ] in
        Alcotest.(check int) "result" 120 result;
        Alcotest.(check (list string))
          "labels"
          [ "a"; "b"; "c" ]
          (List.map (fun s -> s.E.label) steps);
        Alcotest.(check (list int))
          "chosen" [ 1; 2; 0 ]
          (List.map (fun s -> s.E.chosen) steps);
        Alcotest.(check (list int))
          "arities" [ 2; 3; 2 ]
          (List.map (fun s -> s.E.arity) steps));
    Alcotest.test_case "replay rejects out-of-arity choices" `Quick (fun () ->
        Alcotest.check_raises "choice 3 of arity 3"
          (Invalid_argument
             "Explore.replay: choice 3 at depth 1 is outside arity 3")
          (fun () -> ignore (E.replay static_harness ~schedule:[ 0; 3; 0 ])));
    Alcotest.test_case "replay rejects too-short schedules" `Quick (fun () ->
        Alcotest.check_raises "schedule of 2 for 3 choice points"
          (Invalid_argument
             "Explore.replay: schedule has 2 choices but the harness asked \
              for more")
          (fun () -> ignore (E.replay static_harness ~schedule:[ 0; 1 ])));
    Alcotest.test_case "nondeterministic harness is rejected" `Quick (fun () ->
        (* Arity of the first choice point changes between executions. *)
        let calls = ref 0 in
        let harness ctx =
          incr calls;
          let arity = if !calls <= 1 then 2 else 3 in
          ignore (E.Ctx.choose ~arity ~label:(fun () -> "unstable") ctx);
          ignore (E.Ctx.choose ~arity:2 ~label:(fun () -> "tail") ctx)
        in
        Alcotest.check_raises "arity drift"
          (Invalid_argument
             "Explore: nondeterministic harness (arity 2 became 3 at depth 0)")
          (fun () ->
            ignore (E.explore harness ~on_schedule:(fun ~schedule:_ _ -> ()))));
  ]

(* ---- Workload.Explore: harness basics --------------------------------- *)

let config_tests =
  [
    Alcotest.test_case "validate rejects an oversized message program" `Quick
      (fun () ->
        Alcotest.check_raises "messages > n * window"
          (Invalid_argument
             "Explore: the message program (7 messages) must fit the window \
              (at most n * window = 6)")
          (fun () -> ignore (WE.config ~n:3 ~messages:7 ~window_subruns:2 ())));
    Alcotest.test_case "validate rejects a horizon inside the window" `Quick
      (fun () ->
        Alcotest.check_raises "horizon = window"
          (Invalid_argument
             "Explore: horizon (2 subruns) must exceed the window (2)")
          (fun () ->
            ignore (WE.config ~n:3 ~window_subruns:2 ~horizon_subruns:2 ())));
    Alcotest.test_case "fault-free n=3 verifies clean with the oracle" `Quick
      (fun () ->
        let report = WE.explore (WE.config ~n:3 ()) in
        Alcotest.(check bool) "ok" true (WE.ok report);
        Alcotest.(check int) "no violating schedule" 0
          report.WE.schedules_with_violations;
        Alcotest.(check bool) "pruning active" true (report.WE.stats.E.pruned > 0);
        Alcotest.(check bool)
          "pruned < total" true
          (report.WE.stats.E.pruned < report.WE.stats.E.total);
        Alcotest.(check int)
          "oracle saw every schedule" report.WE.stats.E.explored
          report.WE.oracle_checked;
        Alcotest.(check int) "oracle agrees" 0 report.WE.oracle_disagreements);
    Alcotest.test_case "a clean truncated search says so" `Quick (fun () ->
        let report = WE.explore ~max_schedules:5 (WE.config ~n:3 ()) in
        Alcotest.(check bool) "truncated" true report.WE.stats.E.truncated;
        Alcotest.(check int) "no violating schedule" 0
          report.WE.schedules_with_violations;
        let text = Format.asprintf "%a" WE.pp_report report in
        Alcotest.(check bool) "clean and truncated" true
          (Astring_contains.contains text
             "verdict: every explored schedule satisfies all clauses \
              (search truncated)"));
    Alcotest.test_case "exploration is deterministic" `Quick (fun () ->
        let c = WE.config ~n:3 ~crash_choices:true ~with_oracle:false () in
        let a = WE.to_json (WE.explore c) in
        let b = WE.to_json (WE.explore c) in
        Alcotest.(check string) "byte-identical reports" a b);
    Alcotest.test_case "beyond-budget silencing yields a replayable \
                        counterexample" `Quick (fun () ->
        (* n = 3 tolerates t = 1 failures per subrun; silencing 2 must
           break atomicity/liveness, and the reported counterexample must
           reproduce exactly the violations the search recorded. *)
        let c = WE.config ~n:3 ~silenced:2 ~with_oracle:false () in
        let report = WE.explore c in
        Alcotest.(check bool) "found violations" true
          (report.WE.schedules_with_violations > 0);
        match report.WE.counterexample with
        | None -> Alcotest.fail "no counterexample reported"
        | Some cx ->
            let result, steps = WE.replay c ~schedule:cx.WE.cx_schedule in
            Alcotest.(check (list string))
              "replay reproduces the violations" cx.WE.cx_violations
              result.WE.violations;
            Alcotest.(check int)
              "decision log covers the schedule"
              (List.length cx.WE.cx_schedule)
              (List.length steps));
  ]

(* ---- pruning soundness: pruned = brute force on the violation set ------ *)

let explore_everything ~prune c =
  let report = WE.explore ~prune ~max_schedules:1_000_000 c in
  Alcotest.(check bool)
    "tiny config fully enumerated" false report.WE.stats.E.truncated;
  report

let check_sound c =
  let pruned = explore_everything ~prune:true c in
  let brute = explore_everything ~prune:false c in
  (* Identical violation behavior... *)
  Alcotest.(check (list string))
    "same distinct violation set" brute.WE.distinct_violations
    pruned.WE.distinct_violations;
  Alcotest.(check bool)
    "violations found iff brute force finds them"
    (brute.WE.schedules_with_violations > 0)
    (pruned.WE.schedules_with_violations > 0);
  (* ... from a genuinely smaller search. *)
  Alcotest.(check bool)
    "pruned run explores no more schedules" true
    (pruned.WE.stats.E.explored <= brute.WE.stats.E.explored);
  Alcotest.(check bool)
    "total is a lower bound on the raw space" true
    (pruned.WE.stats.E.total <= brute.WE.stats.E.explored)

(* Random tiny configurations: every axis of nondeterminism switched on and
   off, small enough that brute force stays in the thousands. *)
let tiny_config_gen =
  QCheck.Gen.(
    int_range 2 3 >>= fun n ->
    int_range 1 2 >>= fun k ->
    int_bound n >>= fun messages ->
    bool >>= fun crash_choices ->
    oneofl [ 0; 3 ] >>= fun omission_choices ->
    int_bound (min 1 (n - 1)) >>= fun silenced ->
    return
      (WE.config ~n ~k ~messages ~crash_choices ~omission_choices ~silenced
         ~with_oracle:false ()))

let pp_tiny c =
  Printf.sprintf "n=%d k=%d messages=%d crash=%b omission=%d silenced=%d"
    c.WE.n c.WE.k c.WE.messages c.WE.crash_choices c.WE.omission_choices
    c.WE.silenced

let soundness_property =
  QCheck.Test.make ~count:8 ~name:"pruned and brute-force agree on violations"
    (QCheck.make ~print:pp_tiny tiny_config_gen)
    (fun c ->
      check_sound c;
      true)

(* ---- committed expectations stay byte-stable --------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  contents

let expectation_tests =
  let check_expectation name c =
    Alcotest.test_case (Printf.sprintf "expectation %s" name) `Quick (fun () ->
        let report = WE.explore c in
        Alcotest.(check bool) "zero violations, not truncated" true (WE.ok report);
        Alcotest.(check bool) "pruning active" true (report.WE.stats.E.pruned > 0);
        Alcotest.(check string)
          "byte-identical to the committed report"
          (read_file (Filename.concat "expect" name))
          (WE.to_json report ^ "\n"))
  in
  [
    check_expectation "explore_n3_w2_crash.json"
      (WE.config ~n:3 ~messages:6 ~window_subruns:2 ~crash_choices:true ());
    check_expectation "explore_n4_w1.json" (WE.config ~n:4 ());
    (* Within-budget persistent silencing (t = 1 for n = 3): clean since the
       solo-view zombie fix; previously this very sweep surfaced schedules
       where the silenced node outlived its expulsion. *)
    check_expectation "explore_n3_w2_s1.json"
      (WE.config ~n:3 ~messages:6 ~window_subruns:2 ~silenced:1 ());
  ]

(* ---- campaign-found failures are rediscovered -------------------------- *)

let rediscovery_tests =
  [
    Alcotest.test_case "of_campaign_spec refuses probabilistic faults" `Quick
      (fun () ->
        let spec =
          {
            Workload.Campaign.n = 5;
            k = 2;
            rate = 0.5;
            messages = 10;
            send_omission = 0.01;
            recv_omission = 0.;
            link_loss = 0.;
            silenced_per_subrun = 0;
            crashes = [];
            max_rtd = 60.;
          }
        in
        Alcotest.(check bool)
          "unmappable" true
          (WE.of_campaign_spec spec = None));
    Alcotest.test_case "campaign reproducer is rediscovered by the explorer"
      `Slow (fun () ->
        (* A pinned over-budget campaign whose first run fails and shrinks
           to a burst-only reproducer (seed 1: n=5 k=4 silenced=3, no
           probabilistic faults — the shrinker preserves the over-budget
           class, so the burst stays beyond t = 2).  Mapping it onto the
           explorer's bounded model must rediscover a violation. *)
        let campaign =
          Workload.Campaign.run ~over_budget:true ~shrink_failures:true
            ~budget:1 ~seed:1 ()
        in
        let failing =
          List.filter
            (fun r -> not r.Workload.Campaign.outcome.Workload.Campaign.ok)
            campaign.Workload.Campaign.runs
        in
        Alcotest.(check bool) "campaign found a failure" true (failing <> []);
        let rediscovered =
          List.exists
            (fun r ->
              match r.Workload.Campaign.shrunk with
              | None -> false
              | Some s -> (
                  match
                    WE.of_campaign_spec s.Workload.Campaign.shrunk_spec
                  with
                  | None -> false
                  | Some c ->
                      let report =
                        WE.explore ~max_schedules:2_000
                          { c with WE.with_oracle = false }
                      in
                      report.WE.schedules_with_violations > 0))
            failing
        in
        Alcotest.(check bool)
          "explorer rediscovers the shrunk failure" true rediscovered);
  ]

(* ---- regression: the solo-view zombie -------------------------------- *)

let regression_tests =
  [
    Alcotest.test_case "the minimal zombie schedule now departs cleanly" `Quick
      (fun () ->
        (* Schedule [0;0;0;0] on n=3/silenced=1 is the minimal reproducer of
           the solo-view zombie: p0 is silenced every subrun, the survivors
           expel it, and before the evidence gate its own solo decisions
           kept resetting its silence counter forever.  Pin the fixed
           behaviour: p0 departs (decision silence, or partitioned if its
           view collapses first), no clause fires, and the trace oracle
           agrees. *)
        let c = WE.config ~n:3 ~silenced:1 () in
        let result, _steps = WE.replay c ~schedule:[ 0; 0; 0; 0 ] in
        Alcotest.(check (list string)) "no violations" [] result.WE.violations;
        Alcotest.(check (option bool)) "oracle agrees" (Some true)
          result.WE.oracle_agrees;
        let departed_reason =
          List.assoc_opt 0 result.WE.departures
        in
        (match departed_reason with
        | Some ("decision silence" | "partitioned (solo view)") -> ()
        | Some other ->
            Alcotest.failf "p0 departed for an unexpected reason: %s" other
        | None -> Alcotest.fail "the silenced node never departed"));
    Alcotest.test_case "window-mode silencing explores clean too" `Quick
      (fun () ->
        (* The weaker adversary (silencing stops at the window edge) is a
           strict subset of persistent silencing: it must also be clean
           within budget. *)
        let c =
          WE.config ~n:3 ~silenced:1 ~silence_mode:WE.Window
            ~with_oracle:false ()
        in
        let report = WE.explore c in
        Alcotest.(check bool) "ok" true (WE.ok report);
        Alcotest.(check int) "no violating schedule" 0
          report.WE.schedules_with_violations);
  ]

let suite =
  [
    ("explore.driver", driver_tests);
    ("explore.harness", config_tests);
    ("explore.regression", regression_tests);
    ( "explore.soundness",
      List.map QCheck_alcotest.to_alcotest [ soundness_property ] );
    ("explore.expectations", expectation_tests);
    ("explore.rediscovery", rediscovery_tests);
  ]
