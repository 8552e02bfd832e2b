type 'a client = {
  id : Net.Node_id.t;
  gmt : 'a Urcgc.Gmt.t;
  mutable decision : Urcgc.Decision.t;
  mutable log : (Causal.Mid.t * 'a) list;  (* newest first *)
}

type 'a t = 'a client list

let send edge ~src dst body =
  Net.Netsim.send edge ~src ~dst ~kind:(Urcgc.Wire.kind body)
    ~size:(Urcgc.Wire.body_size body) body

let receive c msg =
  Urcgc.Gmt.receive c.gmt
    ~processed:(fun msg ->
      c.log <- (msg.Causal.Causal_msg.mid, msg.payload) :: c.log)
    ~queued:(fun _ _ -> ())
    msg

(* The group's data and decisions arrive on the group network, recover
   replies on the edge.  The purges a full-group decision agrees on apply to
   clients too: orphaned waiting messages can never be processed anywhere. *)
let handle c body =
  match body with
  | Urcgc.Wire.Data msg -> receive c msg
  | Urcgc.Wire.Recover_reply { messages; _ } -> List.iter (receive c) messages
  | Urcgc.Wire.Decision_pdu d ->
      if Urcgc.Decision.newer d ~than:c.decision then begin
        c.decision <- d;
        Urcgc.Gmt.purge c.gmt ~discarded:ignore d
      end
  | Urcgc.Wire.Request _ | Urcgc.Wire.Recover_req _ -> ()

let attach_clients cluster ~net ~client_ids =
  let n = (Urcgc.Cluster.config cluster).Urcgc.Config.n in
  if List.exists (fun id -> Net.Node_id.to_int id < n) client_ids then
    invalid_arg "Diffusion.attach_clients: client id inside the group range";
  let decision = Urcgc.Decision.initial ~n in
  let order =
    List.map
      (fun id -> { id; gmt = Urcgc.Gmt.create ~n; decision; log = [] })
      client_ids
  in
  let edge =
    Net.Netsim.create (Net.Netsim.engine net) ~fault:(Net.Netsim.fault net)
      ~rng:(Sim.Rng.create ~seed:4242) ()
  in
  List.iter
    (fun c ->
      let on_packet (packet : _ Net.Netsim.packet) = handle c packet.payload in
      Net.Netsim.attach net c.id on_packet;
      Net.Netsim.attach edge c.id on_packet)
    order;
  (* Client recovery cannot be served from the members' protocol history: a
     message becomes stable — and is purged — once every *group member*
     processed it, and diffusion clients are outside the group.  Each server
     therefore keeps a bounded retention buffer of recently processed
     messages, and answers the clients' recover requests from it over the
     edge network. *)
  let retention =
    Array.init n (fun i ->
        let server = Net.Node_id.of_int i in
        let retained = Causal.History.create ~n in
        Net.Netsim.attach edge server (fun (packet : _ Net.Netsim.packet) ->
            match packet.payload with
            | Urcgc.Wire.Recover_req req ->
                Urcgc.Gmt.serve retained ~self:server
                  ~send:(send edge ~src:server) req
            | _ -> ());
        retained)
  in
  (* Every processed message enters the server's retention buffer; a bounded
     tail per origin is kept (clients lagging further have lost the stream). *)
  Urcgc.Cluster.on_delivery cluster (fun { Urcgc.Cluster.node; msg; _ } ->
      let retained = retention.(Net.Node_id.to_int node) in
      Causal.History.store retained msg;
      let origin = Causal.Mid.origin msg.Causal.Causal_msg.mid in
      let newest = Causal.History.max_seq retained ~origin in
      ignore (Causal.History.purge_upto retained ~origin ~seq:(newest - 256)));
  Urcgc.Cluster.add_broadcast_targets cluster client_ids;
  (* Once per subrun: fetch every gap the latest decision shows from the
     most updated server. *)
  Urcgc.Cluster.on_round cluster (fun ~round ->
      if round mod 2 = 0 then
        List.iter
          (fun c ->
            Urcgc.Gmt.recover c.gmt ~self:c.id ~send:(send edge ~src:c.id)
              c.decision)
          order);
  order

let clients t = t

let client t id = List.find (fun c -> Net.Node_id.equal c.id id) t

let client_id c = c.id

let processed c = List.rev c.log

let processed_count c = Causal.Delivery.count c.gmt.delivery

let waiting_length c = Causal.Waiting_list.length c.gmt.waiting

let last_processed c origin =
  Causal.Delivery.last_processed c.gmt.delivery origin
