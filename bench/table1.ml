(* Table 1: amount of generated control messages and their size in bytes,
   urcgc vs CBCAST, under reliable and crash conditions.

   The paper's claims to reproduce:
   - reliable: urcgc always pays its agreement (2(n-1) control messages per
     subrun) where CBCAST gets away with n+1 small piggyback/stability
     messages — CBCAST is cheaper when nothing fails (measured here in
     control bytes per subrun: its copies outnumber urcgc's, but are small);
   - crash: urcgc's message size stays constant (the same request/decision
     PDUs keep flowing) while CBCAST's flush messages grow with the unstable
     backlog; urcgc's count formula is 2(2K+f)(n-1) over the recovery
     window vs CBCAST's K((f+1)(2n-3)+1);
   - a urcgc control message for n = 15 fits a 576-byte IP datagram. *)

let n = 15
let k = 3
let messages = 200

let run_urcgc ~fault =
  let config = Urcgc.Config.make ~k ~n () in
  let load = Workload.Load.make ~rate:0.5 ~total_messages:messages () in
  let scenario =
    Workload.Scenario.make ~name:"table1-urcgc" ~fault ~seed:42 ~max_rtd:300.0
      ~config ~load ()
  in
  Workload.Runner.run scenario

let run_cbcast ~fault =
  let load = Workload.Load.make ~rate:0.5 ~total_messages:messages () in
  Workload.Runner_cbcast.run ~n ~k ~load ~fault ~seed:42 ~max_rtd:300.0 ()

let crash_fault =
  Net.Fault.with_crashes
    [ (Net.Node_id.of_int 9, Sim.Ticks.of_int ((4 * Sim.Ticks.per_rtd) + 1)) ]
    Net.Fault.reliable

let run () =
  Format.printf
    "@.== Table 1: control messages and sizes, urcgc vs CBCAST ==@.";
  Format.printf "   (n = %d, K = %d, f = 0, %d data messages per run)@.@." n k
    messages;
  let u_rel = run_urcgc ~fault:Net.Fault.reliable in
  let u_crash = run_urcgc ~fault:crash_fault in
  let c_rel = run_cbcast ~fault:Net.Fault.reliable in
  let c_crash = run_cbcast ~fault:crash_fault in
  let table =
    Stats.Table.create
      ~columns:
        [
          ("protocol / condition", Stats.Table.Left);
          ("ctl msgs/subrun (meas)", Stats.Table.Right);
          ("msgs (paper)", Stats.Table.Left);
          ("mean size B (meas)", Stats.Table.Right);
          ("max size B (meas)", Stats.Table.Right);
          ("size (paper)", Stats.Table.Left);
        ]
  in
  let urcgc_row label (r : Workload.Runner.report) paper_msgs paper_size =
    Stats.Table.add_row table
      [
        label;
        Stats.Table.cell_float (Workload.Runner.control_msgs_per_subrun r);
        paper_msgs;
        Stats.Table.cell_float ~decimals:0 r.Workload.Runner.control_mean_size;
        Stats.Table.cell_int r.Workload.Runner.control_max_size;
        paper_size;
      ]
  in
  let cbcast_row label (r : Workload.Runner_cbcast.report) paper_msgs paper_size
      =
    Stats.Table.add_row table
      [
        label;
        Stats.Table.cell_float
          (if r.Workload.Runner_cbcast.subruns = 0 then 0.0
           else
             float_of_int r.Workload.Runner_cbcast.control_msgs
             /. float_of_int r.Workload.Runner_cbcast.subruns);
        paper_msgs;
        Stats.Table.cell_float ~decimals:0
          r.Workload.Runner_cbcast.control_mean_size;
        Stats.Table.cell_int r.Workload.Runner_cbcast.control_max_size;
        paper_size;
      ]
  in
  urcgc_row "urcgc / reliable" u_rel
    (Printf.sprintf "2(n-1) = %d"
       (Stats.Analytic.urcgc_control_msgs_reliable ~n))
    "~n x 36 (const)";
  cbcast_row "cbcast / reliable" c_rel
    (Printf.sprintf "n+1 = %d" (Stats.Analytic.cbcast_control_msgs_reliable ~n))
    (Printf.sprintf "4(n+1) = %d" (Stats.Analytic.cbcast_msg_size_reliable ~n));
  Stats.Table.add_rule table;
  urcgc_row "urcgc / 1 crash" u_crash
    (Printf.sprintf "2(2K+f)(n-1) = %d over episode"
       (Stats.Analytic.urcgc_control_msgs_crash ~n ~k ~f:0))
    "unchanged";
  cbcast_row "cbcast / 1 crash" c_crash
    (Printf.sprintf "K((f+1)(2n-3)+1) = %d"
       (Stats.Analytic.cbcast_control_msgs_crash ~n ~k ~f:0))
    (Printf.sprintf "grows; flush hdr 4(n-1) = %d + data"
       (Stats.Analytic.cbcast_flush_size ~n));
  Stats.Table.pp Format.std_formatter table;
  Format.printf "@.shape checks:@.";
  Format.printf "  urcgc message size unchanged by the crash: %b@."
    (abs (u_crash.Workload.Runner.control_max_size
          - u_rel.Workload.Runner.control_max_size)
     <= 8);
  Format.printf "  cbcast flush messages grow well past its reliable size: %b@."
    (c_crash.Workload.Runner_cbcast.control_max_size
    > 4 * c_rel.Workload.Runner_cbcast.control_max_size);
  Format.printf "  urcgc control PDU fits a %dB IP datagram at n=%d: %b@."
    Stats.Analytic.ip_min_datagram n
    (u_rel.Workload.Runner.control_max_size <= Stats.Analytic.ip_min_datagram);
  let per_subrun bytes subruns =
    float_of_int bytes /. float_of_int (max 1 subruns)
  in
  Format.printf
    "  cbcast sends fewer control bytes per subrun than urcgc when reliable \
     (their win): %b@."
    (per_subrun c_rel.Workload.Runner_cbcast.control_bytes
       c_rel.Workload.Runner_cbcast.subruns
    < per_subrun u_rel.Workload.Runner.control_bytes
        u_rel.Workload.Runner.subruns)
