type 'a delivery = {
  node : Net.Node_id.t;
  msg : 'a Context_graph.node;
  at : Sim.Ticks.t;
}

type 'a t = {
  group : 'a Member.t Net.Group.t;
  net : 'a Wire.body Net.Netsim.t;
  tracer : Sim.Trace.t;
  mutable deliveries : 'a delivery list;
  mutable generations : (Context_graph.mid * Sim.Ticks.t) list;
  mutable masked : (Net.Node_id.t * Net.Node_id.t * Sim.Ticks.t) list;
  mutable dropped : int;
}

let now t = Net.Group.now t.group

let execute t member action =
  let self = Member.id member in
  match action with
  | Member.Multicast body ->
      (match body with
      | Wire.Msg node ->
          t.generations <- (node.Context_graph.mid, now t) :: t.generations
      | Wire.Retrans_req _ | Wire.Retrans_reply _ | Wire.Keepalive
      | Wire.Mask_out _ | Wire.Mask_ack _ | Wire.Mask_done _ ->
          ());
      Net.Netsim.multicast_array t.net ~src:self
        ~dsts:
          (Array.of_list (Net.Node_id.peers (Member.participants member) ~self))
        ~kind:(Wire.kind body) ~size:(Wire.body_size body) body
  | Member.Unicast (dst, body) ->
      Net.Netsim.send t.net ~src:self ~dst ~kind:(Wire.kind body)
        ~size:(Wire.body_size body) body
  | Member.Delivered msg ->
      t.deliveries <- { node = self; msg; at = now t } :: t.deliveries
  | Member.Masked target ->
      t.masked <- (self, target, now t) :: t.masked;
      Sim.Trace.note t.tracer ~time:(now t)
        ~source:(Format.asprintf "%a" Net.Node_id.pp self)
        "masked out %a" Net.Node_id.pp target
  | Member.Dropped mids -> t.dropped <- t.dropped + List.length mids

let execute_all t member actions = List.iter (execute t member) actions

let create ?(tracer = Sim.Trace.null) ?pending_bound ~n ~k ~net () =
  let members =
    Array.init n (fun i -> Member.create ?pending_bound ~n ~k (Net.Node_id.of_int i))
  in
  let group =
    Net.Group.create ~engine:(Net.Netsim.engine net) ~fault:(Net.Netsim.fault net)
      ~active:Member.active members
  in
  let t =
    {
      group;
      net;
      tracer;
      deliveries = [];
      generations = [];
      masked = [];
      dropped = 0;
    }
  in
  Array.iter
    (fun member ->
      let self = Member.id member in
      Net.Netsim.attach net self (fun (packet : _ Net.Netsim.packet) ->
          if not (Net.Group.crashed group self) then
            execute_all t member
              (Member.handle member ~subrun:(Net.Group.subrun group)
                 ~from:packet.src packet.payload)))
    members;
  t

let start t =
  Net.Group.start t.group (fun round ->
      let subrun = round / 2 in
      Net.Group.iter_live t.group (fun member ->
          execute_all t member (Member.on_round member ~subrun)))

let group t = t.group

let member t node = Net.Group.member t.group node
let submit ?size t node payload = Member.submit ?size (member t node) payload
let members t = Net.Group.members t.group
let on_round t callback = Net.Group.on_round t.group callback
let deliveries t = List.rev t.deliveries
let generations t = List.rev t.generations
let masked t = List.rev t.masked
let dropped t = t.dropped
let subrun t = Net.Group.subrun t.group
let active_members t = Net.Group.active_members t.group

let idle member =
  Member.sap_backlog member = 0
  && Member.pending member = 0
  && not (Member.masking member)

let agree first member = Member.attached member = Member.attached first
let quiescent t = Net.Group.quiescent t.group ~idle ~agree
