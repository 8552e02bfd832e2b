(* The shared group harness: Net.Group's round clock, crash gating,
   quiescence scaffold and run loop, and Workload.Load's injector. *)

let node = Net.Node_id.of_int

(* A stand-in member: the harness only ever sees it through the predicates
   the test hands it. *)
type fake = {
  id : int;
  mutable active : bool;
  mutable idle : bool;
  mutable value : int;
}

let fakes n =
  Array.init n (fun id -> { id; active = true; idle = true; value = 0 })

let group ?(crashes = []) members =
  let engine = Sim.Engine.create () in
  let fault =
    Net.Fault.create
      (Net.Fault.with_crashes
         (List.map (fun (i, tick) -> (node i, Sim.Ticks.of_int tick)) crashes)
         Net.Fault.reliable)
      ~rng:(Sim.Rng.create ~seed:1)
  in
  (engine, Net.Group.create ~engine ~fault ~active:(fun m -> m.active) members)

let quiescent g =
  Net.Group.quiescent g ~idle:(fun m -> m.idle) ~agree:(fun first m ->
      m.value = first.value)

let clock_tests =
  [
    Alcotest.test_case "a second start raises" `Quick (fun () ->
        let _, g = group (fakes 2) in
        Net.Group.start g ignore;
        Alcotest.check_raises "restart"
          (Invalid_argument "Group.start: already started") (fun () ->
            Net.Group.start g ignore));
    Alcotest.test_case "callbacks follow the body in registration order"
      `Quick (fun () ->
        let engine, g = group (fakes 2) in
        let log = ref [] in
        let record entry = log := entry :: !log in
        Net.Group.start g (fun round -> record ("body", round, Net.Group.round g));
        Net.Group.on_round g (fun ~round -> record ("a", round, Net.Group.round g));
        Net.Group.on_round g (fun ~round -> record ("b", round, Net.Group.round g));
        Sim.Engine.run engine ~until:Sim.Ticks.round;
        Alcotest.(check (list (triple string int int)))
          "(who, round passed, rounds completed)"
          [
            ("body", 0, 0); ("a", 0, 1); ("b", 0, 1);
            ("body", 1, 1); ("a", 1, 2); ("b", 1, 2);
          ]
          (List.rev !log);
        Sim.Engine.run engine ~until:Sim.Ticks.subrun;
        Alcotest.(check int) "two rounds per subrun" 1 (Net.Group.subrun g));
    Alcotest.test_case "crashed members get no hook" `Quick (fun () ->
        (* p1 fail-stops at tick 60: it takes part in rounds 0 and 1 only. *)
        let engine, g = group ~crashes:[ (1, 60) ] (fakes 3) in
        let hooks = ref [] in
        Net.Group.start g (fun round ->
            Net.Group.iter_live g (fun m -> hooks := (round, m.id) :: !hooks));
        Sim.Engine.run engine ~until:(Sim.Ticks.of_int 100);
        Alcotest.(check (list (pair int int)))
          "(round, member)"
          [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (1, 2); (2, 0); (2, 2) ]
          (List.rev !hooks);
        Alcotest.(check bool) "p1 crashed" true (Net.Group.crashed g (node 1));
        Alcotest.(check bool) "still active" true (Net.Group.active g (node 1));
        Alcotest.(check (list int))
          "active members" [ 0; 2 ]
          (List.map Net.Node_id.to_int (Net.Group.active_members g)));
  ]

let quiescence_tests =
  [
    Alcotest.test_case "quiescent skips crashed and departed members" `Quick
      (fun () ->
        let members = fakes 4 in
        let engine, g = group ~crashes:[ (0, 10) ] members in
        Alcotest.(check bool) "all idle, all agree" true (quiescent g);
        members.(2).value <- 7;
        Alcotest.(check bool) "p2 disagrees" false (quiescent g);
        members.(2).active <- false;
        Alcotest.(check bool) "p2 departed" true (quiescent g);
        (* p0 is the reference until it crashes. *)
        members.(0).value <- 3;
        members.(0).idle <- false;
        Alcotest.(check bool) "p0 busy" false (quiescent g);
        Sim.Engine.run engine ~until:(Sim.Ticks.of_int 10);
        Alcotest.(check bool) "p0 crashed" true (quiescent g);
        members.(3).idle <- false;
        Alcotest.(check bool) "p3 busy" false (quiescent g));
    Alcotest.test_case "quiescent holds on an empty group" `Quick (fun () ->
        let _, empty = group [||] in
        Alcotest.(check bool) "no members" true (quiescent empty);
        let members = fakes 2 in
        let _, g = group members in
        Array.iter
          (fun m ->
            m.active <- false;
            m.idle <- false)
          members;
        Alcotest.(check bool) "everybody left" true (quiescent g);
        Alcotest.(check (list int)) "no active member" []
          (List.map Net.Node_id.to_int (Net.Group.active_members g)));
  ]

let run_tests =
  [
    Alcotest.test_case "run stops exactly at a fractional max_rtd" `Quick
      (fun () ->
        let engine, g = group (fakes 2) in
        Net.Group.start g ignore;
        Net.Group.run g ~max_rtd:2.5 ~until:(fun () -> false);
        Alcotest.(check int) "now" 250 (Sim.Ticks.to_int (Sim.Engine.now engine));
        Alcotest.(check int) "rounds" 6 (Net.Group.round g));
    Alcotest.test_case "run stops as soon as until holds" `Quick (fun () ->
        let engine, g = group (fakes 2) in
        Net.Group.start g ignore;
        let asked = ref 0 in
        Net.Group.run g ~max_rtd:10.0 ~until:(fun () ->
            incr asked;
            Net.Group.round g >= 4);
        Alcotest.(check int) "steps" 2 !asked;
        Alcotest.(check int) "now" 200 (Sim.Ticks.to_int (Sim.Engine.now engine)));
  ]

(* Each test replays the injector's draws on a twin generator seeded alike,
   then checks both streams stopped at the same position. *)
let injector_tests =
  let load ?total_messages () =
    Workload.Load.make ?total_messages ~rate:0.5 ()
  in
  [
    Alcotest.test_case "a refused submit consumes its draw but not the cap"
      `Quick (fun () ->
        let members = fakes 4 in
        members.(1).active <- false;
        let _, g = group members in
        let rng = Sim.Rng.create ~seed:11 and twin = Sim.Rng.create ~seed:11 in
        let submitted = ref [] in
        let injector =
          Workload.Load.injector (load ~total_messages:12 ()) ~rng g
            ~submit:(fun sender id ->
              submitted := (Net.Node_id.to_int sender, id) :: !submitted)
        in
        let expected = ref [] and id = ref 0 and refused = ref 0 in
        for round = 0 to 9 do
          Workload.Load.inject injector ~round;
          Array.iter
            (fun m ->
              if !id < 12 && Sim.Rng.bool twin 0.5 then
                if m.active then begin
                  incr id;
                  expected := (m.id, !id) :: !expected
                end
                else incr refused)
            members
        done;
        Alcotest.(check (list (pair int int)))
          "(sender, id)" (List.rev !expected) (List.rev !submitted);
        Alcotest.(check bool) "p1 won some draws" true (!refused > 0);
        Alcotest.(check int) "cap filled by accepted submits only" 12 !id;
        Alcotest.(check bool) "cap reached" true
          (Workload.Load.cap_reached injector);
        Alcotest.(check int64) "same stream position" (Sim.Rng.int64 twin)
          (Sim.Rng.int64 rng));
    Alcotest.test_case "no draw once the cap is reached" `Quick (fun () ->
        let members = fakes 5 in
        let _, g = group members in
        let rng = Sim.Rng.create ~seed:3 and twin = Sim.Rng.create ~seed:3 in
        let injector =
          Workload.Load.injector (load ~total_messages:2 ()) ~rng g
            ~submit:(fun _ _ -> ())
        in
        let successes = ref 0 in
        while !successes < 2 do
          if Sim.Rng.bool twin 0.5 then incr successes
        done;
        for round = 0 to 4 do
          Workload.Load.inject injector ~round
        done;
        Alcotest.(check bool) "cap reached" true
          (Workload.Load.cap_reached injector);
        Alcotest.(check int64) "no draw past the cap" (Sim.Rng.int64 twin)
          (Sim.Rng.int64 rng));
  ]

let suite =
  [
    ("group.clock", clock_tests);
    ("group.quiescence", quiescence_tests);
    ("group.run", run_tests);
    ("group.injector", injector_tests);
  ]
