(* Control room: real-time distributed control with a fail-stop failure (the
   other application class Section 1 motivates).

   Run with:  dune exec examples/control_room.exe

   Eight controllers multicast sensor readings and setpoint changes.  One of
   them crashes mid-run.  The example narrates what urcgc does about it:
   the rotating coordinators accumulate `attempts` against the silent
   process, declare it crashed after K subruns, remove it from the group
   view by agreement — all without ever pausing the processing of the
   survivors' messages — and the survivors end with identical processed
   prefixes (uniform atomicity). *)

let n = 8
let k = 3
let victim = Net.Node_id.of_int 5
let crash_subrun = 4

let () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:5 in
  let fault_spec =
    Net.Fault.with_crashes
      [ (victim, Sim.Ticks.of_int ((crash_subrun * Sim.Ticks.per_rtd) + 1)) ]
      Net.Fault.reliable
  in
  let fault = Net.Fault.create fault_spec ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let config = Urcgc.Config.make ~k ~n () in
  let tracer = Sim.Trace.create () in
  let cluster = Urcgc.Cluster.create ~tracer ~config ~net () in

  (* Steady telemetry from every controller, one reading every other round. *)
  let reading = ref 0 in
  Urcgc.Cluster.on_round cluster (fun ~round ->
      if round < 24 && round mod 2 = 0 then
        List.iter
          (fun node ->
            incr reading;
            Urcgc.Cluster.submit cluster node
              (Printf.sprintf "reading #%d from %s" !reading
                 (Format.asprintf "%a" Net.Node_id.pp node)))
          (Net.Node_id.group n));

  (* Narrate membership: watch the survivors' latest decisions. *)
  let declared = ref false in
  Urcgc.Cluster.on_round cluster (fun ~round ->
      if not !declared then begin
        let survivor = Urcgc.Cluster.member cluster (Net.Node_id.of_int 0) in
        let d = Urcgc.Member.latest_decision survivor in
        if not d.Urcgc.Decision.alive.(Net.Node_id.to_int victim) then begin
          declared := true;
          Format.printf
            "[subrun %2d] the group agreed: %a is crashed (declared by the \
             decision of subrun %d, %d subruns after the fail-stop)@."
            (round / 2) Net.Node_id.pp victim d.Urcgc.Decision.subrun
            (d.Urcgc.Decision.subrun - crash_subrun)
        end
      end);
  Urcgc.Cluster.start cluster;

  Format.printf "== timeline ==@.";
  Format.printf "[subrun %2d] %a fail-stops@." crash_subrun Net.Node_id.pp
    victim;
  Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 40.0);

  (* Survivors' state. *)
  Format.printf "@.== outcome ==@.";
  let survivors =
    List.filter
      (fun node -> not (Net.Node_id.equal node victim))
      (Net.Node_id.group n)
  in
  let processed node =
    Urcgc.Member.processed_count (Urcgc.Cluster.member cluster node)
  in
  let reference = processed (List.hd survivors) in
  Format.printf "every survivor processed %d messages: %b@." reference
    (List.for_all (fun node -> processed node = reference) survivors);
  let views_agree =
    List.for_all
      (fun node ->
        let view = Urcgc.Member.view (Urcgc.Cluster.member cluster node) in
        (not (Causal.Group_view.alive view victim))
        && Causal.Group_view.cardinal view = n - 1)
      survivors
  in
  Format.printf "every survivor's view excludes %a: %b@." Net.Node_id.pp victim
    views_agree;
  (* The headline property: processing never paused.  Count deliveries per
     subrun around the crash. *)
  Format.printf "@.deliveries per subrun around the crash:@.";
  let per_subrun = Hashtbl.create 16 in
  List.iter
    (fun { Urcgc.Cluster.at; _ } ->
      let s = Sim.Ticks.to_int at / Sim.Ticks.per_rtd in
      Hashtbl.replace per_subrun s
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_subrun s)))
    (Urcgc.Cluster.deliveries cluster);
  for s = crash_subrun - 2 to crash_subrun + k + 1 do
    Format.printf "  subrun %2d: %3d messages processed%s@." s
      (Option.value ~default:0 (Hashtbl.find_opt per_subrun s))
      (if s = crash_subrun then "   <- crash happens here" else "")
  done;
  Format.printf
    "@.(the paper's point: no suspension — compare CBCAST, which blocks all@.";
  Format.printf " processing while its flush protocol reforms the view)@."
