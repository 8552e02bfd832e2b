(* Figure 5: the time T (in rtd) that deciding the new group composition and
   message stability requires, against the number f of consecutive
   coordinator crashes.

   The paper's claims to reproduce:
   - urcgc needs 2K + f rtds: slope 1 in f, while messages keep flowing;
   - CBCAST needs K(5f+6) rtds of blocked processing: K-proportional slope,
     an order of magnitude worse and diverging with f.

   The urcgc side is measured by injecting f coordinator crashes in a row
   and watching for the first full-group decision that excludes all of them
   at every surviving member; the CBCAST side is measured from the crash to
   the last view installation (its simplified flush here restarts on a 2K
   timeout per takeover, so its measured slope is ~2K per coordinator crash
   against the paper's 5K — same shape, milder constant; both analytic
   curves are printed alongside). *)

let n = 15
let k = 3
let fs = [ 0; 1; 2; 3; 4; 5; 6 ]
let crash_subrun = 5
let background = Workload.Load.make ~rate:0.3 ~total_messages:200 ()

let crash_time i =
  Sim.Ticks.of_int ((crash_subrun * Sim.Ticks.per_rtd) + 1 + i)

(* f consecutive coordinators: subrun s is coordinated by node (s mod n), so
   crashing nodes crash_subrun .. crash_subrun + f - 1 right as subrun
   [crash_subrun] begins kills exactly the next f coordinators.  One more
   server crash (p14) triggers recovery work even when f = 0. *)
let urcgc_faults f =
  let coordinators =
    List.init f (fun i -> (Net.Node_id.of_int (crash_subrun + i), crash_time i))
  in
  Net.Fault.with_crashes
    ((Net.Node_id.of_int 14, crash_time 0) :: coordinators)
    Net.Fault.reliable

let measure_urcgc f =
  let config =
    (* silence_limit is raised so that f consecutive decision-less subruns
       do not make healthy processes leave during the experiment. *)
    Urcgc.Config.make ~k ~silence_limit:(max (2 * k) (2 * (f + 2))) ~n ()
  in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:42 in
  let fault = Net.Fault.create (urcgc_faults f) ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let cluster = Urcgc.Cluster.create ~config ~net () in
  (* Light background load so the group has messages to stabilize. *)
  let injector =
    Workload.Load.injector background ~rng (Urcgc.Cluster.group cluster)
      ~submit:(fun node id -> Urcgc.Cluster.submit cluster node id)
  in
  Urcgc.Cluster.on_round cluster (Workload.Load.inject injector);
  let crashed_ids = 14 :: List.init f (fun i -> crash_subrun + i) in
  let decided_at = ref None in
  Urcgc.Cluster.on_round cluster (fun ~round:_ ->
      if !decided_at = None then begin
        let now = Sim.Engine.now engine in
        if Sim.Ticks.(now >= crash_time 0) then begin
          let members =
            List.filter
              (fun m ->
                Urcgc.Member.active m
                && not
                     (List.mem
                        (Net.Node_id.to_int (Urcgc.Member.id m))
                        crashed_ids))
              (Urcgc.Cluster.members cluster)
          in
          let settled m =
            let d = Urcgc.Member.latest_decision m in
            d.Urcgc.Decision.full_group
            && List.for_all
                 (fun i -> not d.Urcgc.Decision.alive.(i))
                 crashed_ids
          in
          if members <> [] && List.for_all settled members then
            decided_at := Some now
        end
      end);
  Urcgc.Cluster.start cluster;
  Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 120.0);
  match !decided_at with
  | Some at -> Sim.Ticks.to_rtd (Sim.Ticks.diff at (crash_time 0))
  | None -> nan

(* CBCAST: p14 crashes to trigger the view change; the ranked flush
   coordinators p0, p1, ... are crashed one after the other, each shortly
   after it takes over, producing f coordinator failures during the flush. *)
let measure_cbcast f =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:42 in
  let takeover_gap = 2 * k in
  let crashes =
    (Net.Node_id.of_int 14, crash_time 0)
    :: List.init f (fun i ->
           ( Net.Node_id.of_int i,
             Sim.Ticks.of_int
               (((crash_subrun + k + (i * takeover_gap)) * Sim.Ticks.per_rtd) + 1)
           ))
  in
  let fault =
    Net.Fault.create
      (Net.Fault.with_crashes crashes Net.Fault.reliable)
      ~rng:(Sim.Rng.split rng)
  in
  let cluster =
    Cbcast.Cluster.create ~n ~k ~engine ~fault ~rng:(Sim.Rng.split rng) ()
  in
  let injector =
    Workload.Load.injector background ~rng (Cbcast.Cluster.group cluster)
      ~submit:(fun node id -> Cbcast.Cluster.submit cluster node id)
  in
  Cbcast.Cluster.on_round cluster (Workload.Load.inject injector);
  Cbcast.Cluster.start cluster;
  Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 200.0);
  let crashed_ids = 14 :: List.init f (fun i -> i) in
  (* Completion: the view that excludes every crashed process is installed by
     all surviving actives. *)
  let installs =
    List.filter
      (fun (vc : Cbcast.Cluster.view_change) ->
        List.for_all
          (fun i -> not vc.members.(i))
          crashed_ids)
      (Cbcast.Cluster.view_changes cluster)
  in
  match installs with
  | [] -> nan
  | _ ->
      let last =
        List.fold_left
          (fun acc (vc : Cbcast.Cluster.view_change) ->
            Float.max acc (Sim.Ticks.to_rtd vc.at))
          0.0 installs
      in
      last -. Sim.Ticks.to_rtd (crash_time 0)

let run () =
  Format.printf
    "@.== Figure 5: recovery time T vs consecutive coordinator crashes f ==@.";
  Format.printf "   (n = %d, K = %d; T in rtd)@.@." n k;
  let urcgc_measured =
    Stats.Series.make ~label:"urcgc (meas)"
      (List.map (fun f -> (float_of_int f, measure_urcgc f)) fs)
  in
  let urcgc_paper =
    Stats.Series.make ~label:"urcgc 2K+f"
      (List.map
         (fun f ->
           (float_of_int f, float_of_int (Stats.Analytic.urcgc_recovery_time ~k ~f)))
         fs)
  in
  let cbcast_measured =
    Stats.Series.make ~label:"cbcast (meas)"
      (List.map (fun f -> (float_of_int f, measure_cbcast f)) fs)
  in
  let cbcast_paper =
    Stats.Series.make ~label:"cbcast K(5f+6)"
      (List.map
         (fun f ->
           ( float_of_int f,
             float_of_int (Stats.Analytic.cbcast_recovery_time ~k ~f) ))
         fs)
  in
  let series = [ urcgc_measured; urcgc_paper; cbcast_measured; cbcast_paper ] in
  Stats.Series.pp_table Format.std_formatter series;
  Format.printf "@.";
  Stats.Series.ascii_plot ~width:60 ~height:14 Format.std_formatter series;
  let at s f = Option.value ~default:nan (Stats.Series.y_at s (float_of_int f)) in
  Format.printf "@.shape checks:@.";
  Format.printf "  urcgc T grows ~1 rtd per extra coordinator crash: %b@."
    (let d = (at urcgc_measured 6 -. at urcgc_measured 0) /. 6.0 in
     d > 0.4 && d < 2.5);
  Format.printf "  cbcast T grows ~K-proportionally per crash: %b@."
    (let d = (at cbcast_measured 6 -. at cbcast_measured 0) /. 6.0 in
     d > float_of_int k);
  Format.printf "  cbcast much slower than urcgc at every f: %b@."
    (List.for_all (fun f -> at cbcast_measured f > at urcgc_measured f) fs)
