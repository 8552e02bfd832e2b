type 'a delivery = {
  node : Net.Node_id.t;
  seq : int;
  data : 'a Total_wire.data;
  at : Sim.Ticks.t;
}

type 'a t = {
  group : 'a Member.t Net.Group.t;
  net : 'a Total_wire.body Net.Netsim.t;
  tracer : Sim.Trace.t;
  mutable deliveries : 'a delivery list;
  mutable generations : (Causal.Mid.t * Sim.Ticks.t) list;
  mutable departures : (Net.Node_id.t * Member.reason * Sim.Ticks.t) list;
}

let now t = Net.Group.now t.group

let execute t member action =
  let self = Member.id member in
  match action with
  | Member.Broadcast body ->
      (match body with
      | Total_wire.Data data ->
          t.generations <- (data.Total_wire.mid, now t) :: t.generations
      | Total_wire.Request _ | Total_wire.Decision_pdu _
      | Total_wire.Recover_req _ | Total_wire.Recover_reply _ ->
          ());
      let alive = (Member.latest_decision member).Total_decision.alive in
      Net.Netsim.multicast_array t.net ~src:self
        ~dsts:(Array.of_list (Net.Node_id.peers alive ~self))
        ~kind:(Total_wire.kind body) ~size:(Total_wire.body_size body) body
  | Member.Send (dst, body) ->
      Net.Netsim.send t.net ~src:self ~dst ~kind:(Total_wire.kind body)
        ~size:(Total_wire.body_size body) body
  | Member.Processed (seq, data) ->
      t.deliveries <- { node = self; seq; data; at = now t } :: t.deliveries
  | Member.Left why ->
      t.departures <- (self, why, now t) :: t.departures;
      Sim.Trace.note t.tracer ~time:(now t)
        ~source:(Format.asprintf "%a" Net.Node_id.pp self)
        "left the group: %s"
        (Member.reason_to_string why)

let execute_all t member actions = List.iter (execute t member) actions

let create ?(tracer = Sim.Trace.null) ~n ~k ~net () =
  let members =
    Array.init n (fun i -> Member.create ~n ~k (Net.Node_id.of_int i))
  in
  let group =
    Net.Group.create ~engine:(Net.Netsim.engine net) ~fault:(Net.Netsim.fault net)
      ~active:Member.active members
  in
  let t =
    { group; net; tracer; deliveries = []; generations = []; departures = [] }
  in
  Array.iter
    (fun member ->
      let self = Member.id member in
      Net.Netsim.attach net self (fun (packet : _ Net.Netsim.packet) ->
          if not (Net.Group.crashed group self) then
            execute_all t member (Member.handle member packet.payload)))
    members;
  t

let start t =
  Net.Group.start t.group (fun round ->
      let subrun = round / 2 in
      Net.Group.iter_live t.group (fun member ->
          execute_all t member
            (if round mod 2 = 0 then Member.begin_subrun member ~subrun
             else Member.mid_subrun member ~subrun)))

let group t = t.group

let member t node = Net.Group.member t.group node
let submit ?size t node payload = Member.submit ?size (member t node) payload
let members t = Net.Group.members t.group
let on_round t callback = Net.Group.on_round t.group callback
let deliveries t = List.rev t.deliveries
let generations t = List.rev t.generations
let departures t = List.rev t.departures
let subrun t = Net.Group.subrun t.group
let active_members t = Net.Group.active_members t.group

let idle member = Member.sap_backlog member = 0 && Member.pool_size member = 0
let agree first member = Member.processed_upto member = Member.processed_upto first
let quiescent t = Net.Group.quiescent t.group ~idle ~agree

let total_order_ok t =
  (* Rebuild each active process's processing log and compare: they must be
     prefix-compatible and, at quiescence, identical. *)
  let actives = Net.Node_id.Set.of_list (active_members t) in
  let logs = Hashtbl.create 16 in
  List.iter
    (fun { node; seq; data; _ } ->
      if Net.Node_id.Set.mem node actives then begin
        let log = Option.value ~default:[] (Hashtbl.find_opt logs node) in
        Hashtbl.replace logs node ((seq, data.Total_wire.mid) :: log)
      end)
    (List.rev t.deliveries);
  let ordered =
    Hashtbl.fold (fun _ log acc -> List.rev log :: acc) logs []
  in
  match ordered with
  | [] -> true
  | first :: rest ->
      (* Sequence numbers must be 1..len gap-free and bind the same mids at
         every process. *)
      let well_formed log =
        List.for_all2
          (fun expected (seq, _) -> expected = seq)
          (List.init (List.length log) (fun i -> i + 1))
          log
      in
      let rec prefix_equal a b =
        match (a, b) with
        | [], _ | _, [] -> true
        | (sa, ma) :: ta, (sb, mb) :: tb ->
            sa = sb && Causal.Mid.equal ma mb && prefix_equal ta tb
      in
      List.for_all well_formed ordered
      && List.for_all (fun log -> prefix_equal first log) rest
