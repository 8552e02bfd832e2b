(* Section 2, quantified: the service-time gap between total ordering (the
   authors' urgc, [APR93]) and causal ordering (urcgc, this paper).

   "Some applications need a multicast service that ensures a total ordering
   [...] and the order values are autonomously defined by the service
   provider.  Other applications need to specify their own ordering
   according to application dependent causal relations."  The price of the
   autonomous total order is an extra sequencing round: a message cannot be
   processed — not even by its sender — before a coordinator decision binds
   it to a global sequence number.  The causal service processes at
   reception. *)

let n = 15
let k = 3
let messages = 200

let loads = [ 0.2; 0.5; 1.0 ]

let measure_urcgc ~rate =
  let config = Urcgc.Config.make ~k ~n () in
  let load = Workload.Load.make ~rate ~total_messages:messages () in
  let scenario =
    Workload.Scenario.make ~name:"ordering-urcgc" ~seed:42 ~max_rtd:200.0
      ~config ~load ()
  in
  let r = Workload.Runner.run scenario in
  (Workload.Runner.mean_delay_rtd r, r.Workload.Runner.completion_rtd)

let measure_urgc ~rate =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:42 in
  let fault = Net.Fault.create Net.Fault.reliable ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let cluster = Urgc.Cluster.create ~n ~k ~net () in
  let group = Urgc.Cluster.group cluster in
  let load = Workload.Load.make ~rate ~total_messages:messages () in
  Workload.Load.drive
    (Workload.Load.injector load ~rng group ~submit:(fun node id ->
         Urgc.Cluster.submit cluster node id))
    group
    ~start:(fun () -> Urgc.Cluster.start cluster)
    ~quiescent:(fun () -> Urgc.Cluster.quiescent cluster)
    ~max_rtd:200.0;
  if not (Urgc.Cluster.total_order_ok cluster) then
    Format.printf "  !! total-order violation at rate %.2f@." rate;
  let sent_at = Hashtbl.create 256 in
  List.iter
    (fun (mid, at) -> Hashtbl.replace sent_at mid at)
    (Urgc.Cluster.generations cluster);
  let delays = ref [] and completion = ref 0.0 in
  List.iter
    (fun { Urgc.Cluster.data; at; _ } ->
      completion := Float.max !completion (Sim.Ticks.to_rtd at);
      match Hashtbl.find_opt sent_at data.Urgc.Total_wire.mid with
      | Some t0 -> delays := Sim.Ticks.to_rtd (Sim.Ticks.diff at t0) :: !delays
      | None -> ())
    (Urgc.Cluster.deliveries cluster);
  let mean =
    match !delays with
    | [] -> 0.0
    | ds -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)
  in
  (mean, !completion)

let run () =
  Format.printf
    "@.== Ordering comparison: total (urgc) vs causal (urcgc) service ==@.";
  Format.printf "   (n = %d, K = %d, %d messages; D in rtd)@.@." n k messages;
  let table =
    Stats.Table.create
      ~columns:
        [
          ("load", Stats.Table.Right);
          ("urcgc mean D", Stats.Table.Right);
          ("urgc mean D", Stats.Table.Right);
          ("ratio", Stats.Table.Right);
          ("urcgc done", Stats.Table.Right);
          ("urgc done", Stats.Table.Right);
        ]
  in
  let ratios =
    List.map
      (fun rate ->
        let causal_d, causal_done = measure_urcgc ~rate in
        let total_d, total_done = measure_urgc ~rate in
        let ratio = total_d /. causal_d in
        Stats.Table.add_row table
          [
            Stats.Table.cell_float ~decimals:1 rate;
            Stats.Table.cell_float ~decimals:3 causal_d;
            Stats.Table.cell_float ~decimals:3 total_d;
            Stats.Table.cell_float ~decimals:2 ratio;
            Stats.Table.cell_float ~decimals:1 causal_done;
            Stats.Table.cell_float ~decimals:1 total_done;
          ];
        ratio)
      loads
  in
  Stats.Table.pp Format.std_formatter table;
  Format.printf "@.shape checks:@.";
  Format.printf
    "  total order costs >= ~2x the causal service time at every load: %b@."
    (List.for_all (fun ratio -> ratio > 1.8) ratios)
