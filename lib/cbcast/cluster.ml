type 'a delivery = {
  node : Net.Node_id.t;
  data : 'a Cb_wire.data;
  at : Sim.Ticks.t;
}

type view_change = {
  at_node : Net.Node_id.t;
  view_id : int;
  members : bool array;
  at : Sim.Ticks.t;
}

type 'a t = {
  group : 'a Member.t Net.Group.t;
  transport : 'a Cb_wire.body Net.Transport.t;
  tracer : Sim.Trace.t;
  mutable deliveries : 'a delivery list;
  mutable generations : (Net.Node_id.t * int * Sim.Ticks.t) list;
  mutable view_changes : view_change list;
  mutable flush_starts : (Net.Node_id.t * int * Sim.Ticks.t) list;
}

let now t = Net.Group.now t.group

let send t member ~dsts body =
  match dsts with
  | [] -> ()
  | _ ->
      Net.Transport.request t.transport ~src:(Member.id member) ~dsts
        ~h:(List.length dsts) ~kind:(Cb_wire.kind body)
        ~size:(Cb_wire.body_size body)
        ~on_confirm:(fun ~acked:_ -> ())
        body

let narrate t self fmt =
  Sim.Trace.note t.tracer ~time:(now t)
    ~source:(Format.asprintf "%a" Net.Node_id.pp self)
    fmt

let execute t member action =
  let self = Member.id member in
  match action with
  | Member.Multicast body ->
      (match body with
      | Cb_wire.Data d ->
          t.generations <- (self, Cb_wire.seq d, now t) :: t.generations
      | Cb_wire.Heartbeat _ | Cb_wire.Token _ | Cb_wire.Stability _ | Cb_wire.Suspect _
      | Cb_wire.Flush_req _ | Cb_wire.Flush_unstable _ | Cb_wire.New_view _ ->
          ());
      send t member ~dsts:(Net.Node_id.peers (Member.members member) ~self) body
  | Member.Unicast (dst, body) -> send t member ~dsts:[ dst ] body
  | Member.Delivered data ->
      t.deliveries <- { node = self; data; at = now t } :: t.deliveries
  | Member.View_installed { view_id; members } ->
      t.view_changes <-
        { at_node = self; view_id; members; at = now t } :: t.view_changes;
      narrate t self "installed view %d" view_id
  | Member.Flush_begun view_id ->
      t.flush_starts <- (self, view_id, now t) :: t.flush_starts;
      narrate t self "flush for view %d begun" view_id
  | Member.Halted _ -> narrate t self "halted (excluded from view)"

let execute_all t member actions = List.iter (execute t member) actions

let create ?(tracer = Sim.Trace.null) ~n ~k ~engine ~fault ~rng () =
  let transport = Net.Transport.create engine ~fault ~rng () in
  let members = Array.init n (fun i -> Member.create ~n ~k (Net.Node_id.of_int i)) in
  let group = Net.Group.create ~engine ~fault ~active:Member.active members in
  let t =
    {
      group;
      transport;
      tracer;
      deliveries = [];
      generations = [];
      view_changes = [];
      flush_starts = [];
    }
  in
  Array.iter
    (fun member ->
      let self = Member.id member in
      Net.Transport.attach transport self (fun ~src body ->
          if not (Net.Group.crashed group self) then
            execute_all t member
              (Member.handle member ~subrun:(Net.Group.subrun group) ~from:src
                 body)))
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
let view_changes t = List.rev t.view_changes
let flush_starts t = List.rev t.flush_starts
let traffic t = Net.Transport.traffic t.transport
let subrun t = Net.Group.subrun t.group
let active_members t = Net.Group.active_members t.group

let idle member =
  Member.sap_backlog member = 0
  && Member.buffered member = 0
  && not (Member.flushing member)

let agree first member =
  Vclock.equal (Member.delivered_vt member) (Member.delivered_vt first)

let quiescent t = Net.Group.quiescent t.group ~idle ~agree
