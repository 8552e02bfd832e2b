(* The round-synchrony assumption, probed.

   The paper assumes the subrun is "as long as the round trip delay": a
   request sent at a round boundary reaches the coordinator before it
   computes, and the decision reaches everyone before the next subrun.  That
   holds while the one-way latency stays below half an rtd.  This sweep
   stretches the one-way latency across that boundary.

   What it shows: once requests arrive after the coordinator computes, every
   subrun looks like a mass omission — far beyond the resilience budget
   t = (n-1)/2 the algorithm's correctness rests on.  Mutual crash
   declarations follow, views shrink, and under the primary-partition rule
   a member whose view shrinks to itself departs ([Partitioned]) instead of
   living on in a view nobody else holds: most of the group departs, and
   the survivors, if any, agree.  The run loses its primary partition
   detectably while causal order, atomicity, the zombie check and view
   agreement all hold.  That is the measured reason for the paper's sizing
   rule, "assuming the subrun as long as the round trip delay": past it the
   group stays safe but stops being live. *)

let n = 10
let k = 3
let messages = 120

let run_at ~base_ticks ~seed =
  let config = Urcgc.Config.make ~k ~silence_limit:(4 * k) ~n () in
  let load = Workload.Load.make ~rate:0.4 ~total_messages:messages () in
  let latency = { Net.Netsim.base = Sim.Ticks.of_int base_ticks; jitter = 10 } in
  let scenario =
    Workload.Scenario.make
      ~name:(Printf.sprintf "timing-%d" base_ticks)
      ~latency ~seed ~max_rtd:300.0 ~config ~load ()
  in
  Workload.Runner.run scenario

(* One row of the sweep, over the seeds' runs. *)
type row = {
  base_ticks : int;
  peak : float;
  fragments : float;
  safe : bool;  (* every clause but the primary partition, in every run *)
  lost : int;  (* runs that lost the primary partition *)
}

let seeds = [ 42; 43 ]

let run () =
  Format.printf
    "@.== Timing sweep: one-way latency vs the rtd/2 round boundary ==@.";
  Format.printf
    "   (n = %d, K = %d; a round is %d ticks; requests sent at round start)@.@."
    n k (Sim.Ticks.to_int Sim.Ticks.round);
  let table =
    Stats.Table.create
      ~columns:
        [
          ("one-way (ticks)", Stats.Table.Right);
          ("vs round", Stats.Table.Left);
          ("mean D (rtd)", Stats.Table.Right);
          ("history peak", Stats.Table.Right);
          ("departed", Stats.Table.Right);
          ("group fragments", Stats.Table.Right);
          ("invariants", Stats.Table.Left);
        ]
  in
  let sweep = [ 25; 40; 48; 60; 80; 110 ] in
  let results =
    List.map
      (fun base_ticks ->
        let runs = List.map (fun seed -> run_at ~base_ticks ~seed) seeds in
        let mean f =
          List.fold_left (fun acc r -> acc +. f r) 0.0 runs
          /. float_of_int (List.length runs)
        in
        let verdicts = List.map (fun r -> r.Workload.Runner.verdict) runs in
        let row =
          {
            base_ticks;
            peak = mean (fun r -> float_of_int r.Workload.Runner.history_peak);
            fragments =
              mean (fun r -> float_of_int r.Workload.Runner.fragments);
            (* A lost primary partition is the detectable liveness cost,
               reported apart from the safety clauses. *)
            safe =
              List.for_all
                (fun v ->
                  v.Workload.Checker.causal_ok && v.atomicity_ok
                  && v.zombie_ok && v.views_ok)
                verdicts;
            lost =
              List.length
                (List.filter (fun v -> not v.Workload.Checker.partition_ok)
                   verdicts);
          }
        in
        let regime =
          if base_ticks + 10 <= (Sim.Ticks.to_int Sim.Ticks.round) then "within"
          else if base_ticks < Sim.Ticks.per_rtd then "late requests"
          else "beyond the rtd"
        in
        Stats.Table.add_row table
          [
            Stats.Table.cell_int base_ticks;
            regime;
            Stats.Table.cell_float ~decimals:3
              (mean Workload.Runner.mean_delay_rtd);
            Stats.Table.cell_float ~decimals:0 row.peak;
            Stats.Table.cell_float ~decimals:1
              (mean (fun r ->
                   float_of_int (List.length r.Workload.Runner.departures)));
            Stats.Table.cell_float ~decimals:1 row.fragments;
            (if not row.safe then "VIOLATED"
             else if row.lost > 0 then "partition lost"
             else "ok");
          ];
        row)
      sweep
  in
  Stats.Table.pp Format.std_formatter table;
  Format.printf "@.shape checks:@.";
  let peak_at t =
    match List.find_opt (fun row -> row.base_ticks = t) results with
    | Some row -> row.peak
    | None -> nan
  in
  Format.printf
    "  within the round budget: one view, everything healthy: %b@."
    (List.for_all
       (fun row ->
         row.base_ticks > 40
         || (row.safe && row.lost = 0 && row.fragments = 1.0))
       results);
  Format.printf
    "  past the boundary every run loses its primary partition but stays \
     safe: %b@."
    (List.for_all
       (fun row ->
         row.base_ticks <= 40 || (row.safe && row.lost = List.length seeds))
       results);
  Format.printf
    "  and history sits longer as coverage stalls: %b@."
    (peak_at 60 > peak_at 40)
