type 'a delivery = {
  node : Net.Node_id.t;
  msg : 'a Causal.Causal_msg.t;
  at : Sim.Ticks.t;
}

(* Delivery records are kept in fixed-size column chunks instead of a list
   of records: at n = 128 a subrun processes n*(n-1) messages, and a record
   plus list cell per delivery is most of the round's allocation.  The
   [delivery] records the public accessor returns are materialized on
   demand. *)
let dchunk_size = 512

type 'a dchunk = {
  d_nodes : int array;
  d_ats : int array;  (* Ticks, as raw ints *)
  d_msgs : 'a Causal.Causal_msg.t array;
}

type 'a generation = {
  mid : Causal.Mid.t;
  payload : 'a;
  sent_at : Sim.Ticks.t;
}

type departure = {
  who : Net.Node_id.t;
  why : Member.reason;
  when_ : Sim.Ticks.t;
}

type 'a t = {
  config : Config.t;
  medium : 'a Medium.t;
  tracer : Sim.Trace.t;
  group : 'a Member.t Net.Group.t;
  (* One action sink per member, built once at creation: members stream
     their actions straight into the cluster's effects (sends, records,
     trace) with no per-round action lists. *)
  mutable sinks : 'a Member.sink array;
  mutable extra_broadcast_targets : Net.Node_id.t list;
  mutable delivery_callbacks : ('a delivery -> unit) list;
  mutable confirm_callbacks : (Net.Node_id.t -> Causal.Mid.t -> unit) list;
  mutable dchunks : 'a dchunk list;  (* newest chunk first *)
  mutable dfill : int;  (* occupied slots in the newest chunk *)
  mutable generations : 'a generation list;
  mutable departures : departure list;
  mutable discards : (Net.Node_id.t * Causal.Mid.t list * Sim.Ticks.t) list;
}

let engine t = Medium.engine t.medium
let now t = Sim.Engine.now (engine t)

(* -- typed trace emit points ------------------------------------------- *)

let trace_mid mid =
  {
    Sim.Trace.origin = Net.Node_id.to_int (Causal.Mid.origin mid);
    seq = Causal.Mid.seq mid;
  }

let trace_pdu (body : _ Wire.body) =
  match body with
  | Wire.Data msg ->
      Sim.Trace.Data
        {
          origin = Net.Node_id.to_int (Causal.Mid.origin msg.Causal.Causal_msg.mid);
          seq = Causal.Mid.seq msg.mid;
          deps = Array.length msg.deps;
          bytes = msg.payload_size;
        }
  | Wire.Request r ->
      Sim.Trace.Request
        { sender = Net.Node_id.to_int r.Wire.sender; subrun = r.subrun }
  | Wire.Decision_pdu d ->
      Sim.Trace.Decision
        {
          subrun = d.Decision.subrun;
          coordinator = Net.Node_id.to_int d.coordinator;
          full_group = d.full_group;
        }
  | Wire.Recover_req { requester; origin; from_seq; to_seq } ->
      Sim.Trace.Recover_req
        {
          requester = Net.Node_id.to_int requester;
          origin = Net.Node_id.to_int origin;
          from_seq;
          to_seq;
        }
  | Wire.Recover_reply { responder; messages } ->
      Sim.Trace.Recover_reply
        {
          responder = Net.Node_id.to_int responder;
          count = List.length messages;
        }

let emit t event = Sim.Trace.emit t.tracer ~time:(now t) event

let tracing t = Sim.Trace.enabled t.tracer

(* The destination set of a broadcast by [member]: every other process
   alive in its local view (ids ascending), plus the extra targets, as an
   exact-size array handed to the medium. *)
let broadcast_dsts t member =
  let self = Member.id member in
  let alive = Causal.Group_view.alive_raw (Member.view member) in
  let n = Array.length alive in
  let self_i = Net.Node_id.to_int self in
  let count = ref 0 in
  for j = 0 to n - 1 do
    if alive.(j) && j <> self_i then incr count
  done;
  let extra = t.extra_broadcast_targets in
  let total = !count + List.length extra in
  if total = 0 then [||]
  else begin
    let dsts = Array.make total self in
    let k = ref 0 in
    for j = 0 to n - 1 do
      if alive.(j) && j <> self_i then begin
        dsts.(!k) <- Net.Node_id.of_int j;
        incr k
      end
    done;
    List.iter
      (fun node ->
        dsts.(!k) <- node;
        incr k)
      extra;
    dsts
  end

let sink_of t member =
  let self = Member.id member in
  let self_i = Net.Node_id.to_int self in
  {
    Member.emit_broadcast =
      (fun body ->
        let dsts = broadcast_dsts t member in
        (match body with
        | Wire.Data msg ->
            t.generations <-
              {
                mid = msg.Causal.Causal_msg.mid;
                payload = msg.payload;
                sent_at = now t;
              }
              :: t.generations
        | Wire.Request _ | Wire.Decision_pdu _ | Wire.Recover_req _
        | Wire.Recover_reply _ ->
            ());
        if tracing t then
          emit t
            (Sim.Trace.Broadcast
               { src = self_i; dsts = Array.length dsts; pdu = trace_pdu body });
        Medium.multicast t.medium ~src:self ~dsts body);
    emit_send =
      (fun dst body ->
        if tracing t then
          emit t
            (Sim.Trace.Send
               {
                 src = self_i;
                 dst = Net.Node_id.to_int dst;
                 pdu = trace_pdu body;
               });
        Medium.send t.medium ~src:self ~dst body);
    emit_processed =
      (fun msg ->
        let at = now t in
        let chunk =
          match t.dchunks with
          | chunk :: _ when t.dfill < dchunk_size -> chunk
          | _ ->
              let chunk =
                {
                  d_nodes = Array.make dchunk_size 0;
                  d_ats = Array.make dchunk_size 0;
                  (* [msg] as the fill value: any slot past [dfill] is dead,
                     and seeding with a real message keeps the array boxed
                     without a sentinel. *)
                  d_msgs = Array.make dchunk_size msg;
                }
              in
              t.dchunks <- chunk :: t.dchunks;
              t.dfill <- 0;
              chunk
        in
        chunk.d_nodes.(t.dfill) <- self_i;
        chunk.d_ats.(t.dfill) <- (at : Sim.Ticks.t :> int);
        chunk.d_msgs.(t.dfill) <- msg;
        t.dfill <- t.dfill + 1;
        if tracing t then
          emit t
            (Sim.Trace.Deliver
               { node = self_i; mid = trace_mid msg.Causal.Causal_msg.mid });
        match t.delivery_callbacks with
        | [] -> ()
        | callbacks ->
            let record = { node = self; msg; at } in
            List.iter (fun callback -> callback record) (List.rev callbacks));
    emit_confirmed =
      (fun mid ->
        List.iter
          (fun callback -> callback self mid)
          (List.rev t.confirm_callbacks);
        if tracing t then
          emit t (Sim.Trace.Confirm { node = self_i; mid = trace_mid mid }));
    emit_queued =
      (fun mid depth ->
        if tracing t then
          emit t
            (Sim.Trace.Wait_add { node = self_i; mid = trace_mid mid; depth }));
    emit_discarded =
      (fun mids ->
        t.discards <- (self, mids, now t) :: t.discards;
        if tracing t then
          emit t
            (Sim.Trace.Wait_discard
               { node = self_i; mids = List.map trace_mid mids }));
    emit_left =
      (fun why ->
        t.departures <- { who = self; why; when_ = now t } :: t.departures;
        if tracing t then
          emit t
            (Sim.Trace.Left
               { node = self_i; reason = Member.reason_to_string why }));
  }

let sink t member = t.sinks.(Net.Node_id.to_int (Member.id member))

let crashed t node = Net.Group.crashed t.group node

let on_body t member body =
  if not (crashed t (Member.id member)) then begin
    if tracing t then
      emit t
        (Sim.Trace.Receive
           { node = Net.Node_id.to_int (Member.id member); pdu = trace_pdu body });
    Member.handle member (sink t member) body
  end

let create_with_medium ?(tracer = Sim.Trace.null) ~config ~medium () =
  let initial_decision = Decision.initial ~n:config.Config.n in
  let members =
    Array.init config.Config.n (fun i ->
        Member.create ~decision:initial_decision config (Net.Node_id.of_int i))
  in
  let t =
    {
      config;
      medium;
      tracer;
      group =
        Net.Group.create ~engine:(Medium.engine medium)
          ~fault:(Medium.fault medium) ~active:Member.active members;
      sinks = [||];
      extra_broadcast_targets = [];
      delivery_callbacks = [];
      confirm_callbacks = [];
      dchunks = [];
      dfill = 0;
      generations = [];
      departures = [];
      discards = [];
    }
  in
  t.sinks <- Array.map (fun member -> sink_of t member) members;
  Array.iter
    (fun member ->
      Medium.attach medium (Member.id member) (on_body t member))
    members;
  t

let create ?tracer ~config ~net () =
  create_with_medium ?tracer ~config ~medium:(Medium.of_netsim net) ()

let medium t = t.medium

let start t =
  Net.Group.start t.group (fun round ->
      let subrun = round / 2 in
      if round mod 2 = 0 && tracing t then begin
        (* Coordinator rotation is a function of the (shared, eventually
           consistent) alive view; narrate it from the first active member's
           perspective once per subrun. *)
        match Net.Group.active_members t.group with
        | [] -> ()
        | first :: _ ->
            let coordinator =
              Coordinator.rotation
                ~alive:
                  (Causal.Group_view.alive_array
                     (Member.view (Net.Group.member t.group first)))
                ~subrun
            in
            emit t
              (Sim.Trace.Rotate
                 { subrun; coordinator = Net.Node_id.to_int coordinator })
      end;
      Net.Group.iter_live t.group (fun member ->
          if round mod 2 = 0 then
            Member.begin_subrun member (sink t member) ~subrun
          else Member.mid_subrun member (sink t member) ~subrun))

let config t = t.config
let group t = t.group
let member t node = Net.Group.member t.group node
let members t = Net.Group.members t.group

let submit ?deps ?size t node payload =
  Member.submit ?deps ?size (member t node) payload

let round t = Net.Group.round t.group
let subrun t = Net.Group.subrun t.group
let on_round t callback = Net.Group.on_round t.group callback

let on_delivery t callback =
  t.delivery_callbacks <- callback :: t.delivery_callbacks

let on_confirm t callback =
  t.confirm_callbacks <- callback :: t.confirm_callbacks

let add_broadcast_targets t targets =
  t.extra_broadcast_targets <- t.extra_broadcast_targets @ targets

let deliveries t =
  (* Chunks are newest-first; slots within a chunk are oldest-first.
     Walking newest chunk to oldest and prepending each chunk's slots in
     reverse yields the whole run oldest-first. *)
  let acc = ref [] in
  let fill = ref t.dfill in
  List.iter
    (fun chunk ->
      for i = !fill - 1 downto 0 do
        acc :=
          {
            node = Net.Node_id.of_int chunk.d_nodes.(i);
            msg = chunk.d_msgs.(i);
            at = Sim.Ticks.of_int chunk.d_ats.(i);
          }
          :: !acc
      done;
      fill := dchunk_size)
    t.dchunks;
  !acc
let generations t = List.rev t.generations
let departures t = List.rev t.departures
let discards t = List.rev t.discards

let active_members t = Net.Group.active_members t.group

let idle member =
  Member.sap_backlog member = 0
  && Member.waiting_length member = 0
  && not (Member.flow_blocked member)

(* The same [last_processed] vector and the same view.  A process declared
   crashed but not yet aware of it is a zombie: the group no longer
   addresses it, and it will only leave after its decision-silence timeout.
   The run is not settled until then. *)
let agree first member =
  let same = ref true in
  for j = 0 to (Member.config member).Config.n - 1 do
    let origin = Net.Node_id.of_int j in
    if Member.last_processed member origin <> Member.last_processed first origin
    then same := false
  done;
  !same && Causal.Group_view.equal (Member.view member) (Member.view first)

let quiescent t = Net.Group.quiescent t.group ~idle ~agree
