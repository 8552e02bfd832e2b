(* explore_pinned: the three exhaustively explored configurations CI pins
   (test/expect/explore_*.json), through [Workload.Explore.explore].  The
   controlled medium bypasses [Netsim]; the load is the [Sim.Explore]
   search re-executing the whole stack once per schedule, plus the
   [Sim.Analysis] oracle.  Deterministic: the seed is ignored.

   Every report must equal its pinned file byte for byte.  The report does
   not count deliveries, so one untimed pass of [Workload.Explore.run_schedule]
   under [Sim.Explore.explore] counts them; the traced run wraps the same
   pass in spans. *)

module WE = Workload.Explore

let configs =
  [
    ( "explore_n3_w2_crash.json",
      WE.config ~n:3 ~messages:6 ~window_subruns:2 ~crash_choices:true () );
    ("explore_n4_w1.json", WE.config ~n:4 ());
    ( "explore_n3_w2_s1.json",
      WE.config ~n:3 ~messages:6 ~window_subruns:2 ~silenced:1 () );
  ]

let expected =
  lazy
    (List.map
       (fun (file, _) -> Report.read_file (Filename.concat "test/expect" file))
       configs)

(* What one pass over the three configurations did. *)
type pass = {
  slowdown : float;  (** host slowdown around the pass ([Probe.slowdown]) *)
  setup_ns : int;  (** constructing 200 of the explorer's stacks *)
  ns : int;
  explored : int;
  pruned : int;
  total : int;
  violating : int;
  delivered : int;  (** remote processing events over every schedule *)
  words : int;
  promoted : int;
}

(* The explorer's per-schedule construction: engine, controlled medium,
   cluster, start. *)
let build ~traced i =
  let _, c = List.nth configs (i mod List.length configs) in
  let engine = Sim.Engine.create () in
  let fault =
    Net.Fault.create Net.Fault.reliable ~rng:(Sim.Rng.create ~seed:0)
  in
  let traffic = Net.Traffic.create () in
  let handlers = Array.make c.WE.n (fun (_ : int Urcgc.Wire.body) -> ()) in
  let medium =
    Urcgc.Medium.make ~engine ~fault
      ~traffic:(fun () -> traffic)
      ~attach:(fun node handler -> handlers.(Net.Node_id.to_int node) <- handler)
      ~send:(fun ~src:_ ~dst:_ _ -> ())
      ~multicast:(fun ~src:_ ~dsts:_ _ -> ())
  in
  let config = Urcgc.Config.make ~k:c.WE.k ~n:c.WE.n () in
  let create () = Urcgc.Cluster.create_with_medium ~config ~medium () in
  let cluster =
    if traced then Probe.span Probe.setup_cluster create else create ()
  in
  Urcgc.Cluster.start cluster;
  cluster

(* [Workload.Explore.explore] on every configuration, checked against the
   pinned reports.  The calibration loop is timed before the set-up batch
   and after every configuration, and its time is left out. *)
let public_pass r ~oracle =
  Probe.speed_reset ();
  Probe.speed_samples 20;
  let setup_ns = Stack.batch_ns (build ~traced:false) in
  let words0 = Probe.words () and promoted0 = Probe.promoted_words () in
  let calibration0 = !Probe.speed_total_ns in
  let t0 = Probe.now_ns () in
  let reports =
    List.map
      (fun (_, c) ->
        let report = WE.explore { c with WE.with_oracle = oracle } in
        Probe.speed_samples 20;
        report)
      configs
  in
  let ns = Probe.now_ns () - t0 - (!Probe.speed_total_ns - calibration0) in
  let words = Probe.words () - words0 in
  let promoted = Probe.promoted_words () - promoted0 in
  if oracle then
    List.iter2
      (fun ((file, _), report) expected ->
        Report.gate r
          (WE.to_json report ^ "\n" = expected)
          "explore: the %s report differs from the pinned one" file)
      (List.combine configs reports)
      (Lazy.force expected);
  let stat f =
    List.fold_left (fun acc rep -> acc + f rep.WE.stats) 0 reports
  in
  let violating =
    List.fold_left (fun acc rep -> acc + rep.WE.schedules_with_violations) 0 reports
  in
  let explored = stat (fun s -> s.Sim.Explore.explored) in
  Report.attempt r ~units:explored ~failed:violating;
  {
    slowdown = Probe.slowdown ();
    setup_ns;
    ns;
    explored;
    pruned = stat (fun s -> s.Sim.Explore.pruned);
    total = stat (fun s -> s.Sim.Explore.total);
    violating;
    delivered = 0;
    words;
    promoted;
  }

(* The same exploration through [run_schedule] under [Sim.Explore.explore],
   counting deliveries; [traced] runs each schedule in a span. *)
let mirror_pass ~traced =
  let delivered = ref 0 and violating = ref 0 in
  let words0 = Probe.words () in
  let t0 = Probe.now_ns () in
  if traced then Probe.enter Probe.explore_pass;
  let stats =
    List.map
      (fun (_, c) ->
        let schedule ctx =
          if traced then Probe.span Probe.explore_schedule (fun () -> WE.run_schedule c ctx)
          else WE.run_schedule c ctx
        in
        Sim.Explore.explore ~prune:true ~max_schedules:200_000 schedule
          ~on_schedule:(fun ~schedule:_ (result : WE.run_result) ->
            delivered := !delivered + result.WE.delivered_remote;
            if result.WE.violations <> [] then incr violating))
      configs
  in
  if traced then Probe.exit ();
  let ns = Probe.now_ns () - t0 in
  let stat f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  {
    slowdown = 1.0;
    setup_ns = 0;
    ns;
    explored = stat (fun s -> s.Sim.Explore.explored);
    pruned = stat (fun s -> s.Sim.Explore.pruned);
    total = stat (fun s -> s.Sim.Explore.total);
    violating = !violating;
    delivered = !delivered;
    words = Probe.words () - words0;
    promoted = 0;
  }

let same_space a b =
  a.explored = b.explored && a.pruned = b.pruned && a.total = b.total
  && a.violating = b.violating

let untraced r ~seconds ~warm =
  let passes = Report.repeat ~seconds (fun _ -> public_pass r ~oracle:true) in
  List.iter
    (fun p ->
      Report.gate r (same_space p warm)
        "explore: a pass explored a different space than the counting pass")
    passes;
  let med f = Report.median (List.map f passes) in
  let seconds ns p = Report.reference_s ns ~slowdown:p.slowdown in
  Report.set r "setup_s" (med (fun p -> seconds p.setup_ns p));
  Report.set r "runs_per_s"
    (med (fun p -> Report.ratio (float_of_int p.explored) (seconds p.ns p)));
  Report.set r "deliveries_per_s"
    (med (fun p -> Report.ratio (float_of_int warm.delivered) (seconds p.ns p)));
  Report.note_slowdown
    (List.map (fun p -> p.slowdown) passes)
    ~wall_deliveries_per_s:
      (List.map (fun p -> Report.per_s warm.delivered p.ns) passes);
  Report.set r "alloc_words_per_delivery"
    (med (fun p -> Report.ratio_i p.words warm.delivered));
  Report.set r "promoted_words_per_delivery"
    (med (fun p -> Report.ratio_i p.promoted warm.delivered))

let traced r ~seconds ~warm =
  Stack.traced_setup (build ~traced:true);
  Split.set_setup r;
  let rounds =
    Report.repeat ~min:1 ~seconds (fun i ->
        let plain = public_pass r ~oracle:true in
        Probe.run_id := i;
        let spanned = mirror_pass ~traced:true in
        Report.gate r
          (same_space plain spanned && spanned.delivered = warm.delivered)
          "explore: the traced pass differs from the untraced one";
        let no_oracle = public_pass r ~oracle:false in
        (plain, spanned, no_oracle))
  in
  let sum f = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 rounds) in
  let open Probe in
  let schedules = float_of_int count.(explore_schedule) in
  Report.set r "explore.schedule_us"
    (Report.ratio (corrected_self_ns explore_schedule) schedules /. 1e3);
  Report.set r "explore.search_share"
    (Report.ratio (corrected_self_ns explore_pass)
       (float_of_int total_ns.(explore_pass)));
  Report.set r "explore.oracle_share"
    (1.0 -. Report.ratio (sum (fun (_, _, n) -> n.ns)) (sum (fun (p, _, _) -> p.ns)));
  Report.set r "explore.pruned_share" (Report.ratio_i warm.pruned warm.total);
  Report.set r "explore.words_per_schedule"
    (Report.ratio (float_of_int total_words.(explore_schedule)) schedules);
  Report.set r "trace.overhead_share"
    (Report.ratio (sum (fun (_, s, _) -> s.ns)) (sum (fun (p, _, _) -> p.ns)) -. 1.0)

let run r ~seconds ~trace =
  (* The discarded warm-up pass is the untimed counting one. *)
  let warm = mirror_pass ~traced:false in
  Report.gate r (warm.violating = 0) "explore: %d violating schedules"
    warm.violating;
  if trace then traced r ~seconds ~warm else untraced r ~seconds ~warm
