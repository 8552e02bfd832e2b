type 'msg frame =
  | Payload of {
      xid : int;
      origin : Node_id.t;
      frag : int;  (** fragment index, 0-based *)
      body : 'msg;
    }
  | Ack of { xid : int; frag : int }

(* One destination of one request: the sender's acknowledgement state and
   the receiver's reassembly state side by side.  The body is delivered
   when a new fragment completes [received]. *)
type dst_state = {
  missing : bool array;  (** fragments not yet acknowledged *)
  received : bool array;  (** fragments arrived at the destination *)
}

type 'msg pending = {
  xid : int;
  src : Node_id.t;
  h : int;
  kind : Traffic.kind;
  frag_sizes : int array;
  body : 'msg;
  per_dst : (int, dst_state) Hashtbl.t;
  mutable acked : int;  (** destinations fully acknowledged *)
  mutable retries_left : int;
  mutable confirmed : bool;  (** [on_confirm] has fired *)
  mutable last_sent : Sim.Ticks.t;  (** when the latest copy left *)
  on_confirm : acked:int -> unit;
}

type 'msg t = {
  net : 'msg frame Netsim.t;
  retry_interval : Sim.Ticks.t;
  max_retries : int;
  mtu : int option;
  handlers : (Node_id.t, src:Node_id.t -> 'msg -> unit) Hashtbl.t;
  (* Requests by xid, from [request] until no copy of one can still arrive
     (see [expire]).  An ack for a confirmed request does nothing. *)
  requests : (int, 'msg pending) Hashtbl.t;
  max_latency : Sim.Ticks.t;
  retry_kind : Sim.Engine.kind;
  mutable next_xid : int;
  mutable retransmissions : int;
  mutable fragments_sent : int;
}

let ack_size = 12

let fragment_header = 8

let traffic t = Netsim.traffic t.net
let set_trace t trace = Netsim.set_trace t.net trace
let retransmissions t = t.retransmissions
let dropped_count t = Netsim.dropped_count t.net
let fragments_sent t = t.fragments_sent
let engine t = Netsim.engine t.net
let fault t = Netsim.fault t.net

let fragment_sizes t total =
  match t.mtu with
  | None -> [| total |]
  | Some mtu ->
      let chunk = mtu - fragment_header in
      if total <= mtu then [| total |]
      else begin
        let count = (total + chunk - 1) / chunk in
        Array.init count (fun i ->
            let remaining = total - (i * chunk) in
            fragment_header + min chunk remaining)
      end

let on_frame t node packet =
  match packet.Netsim.payload with
  | Payload { xid; origin; frag; body } ->
      (match Hashtbl.find_opt t.requests xid with
      | None -> ()
      | Some pending ->
          (* A copy reaches only its request's destinations. *)
          let state = Hashtbl.find pending.per_dst (Node_id.to_int node) in
          if
            frag >= 0
            && frag < Array.length state.received
            && not state.received.(frag)
          then begin
            state.received.(frag) <- true;
            if Array.for_all Fun.id state.received then
              match Hashtbl.find_opt t.handlers node with
              | Some handler -> handler ~src:origin body
              | None -> ()
          end);
      (* Always (re-)ack the fragment so a lost ack does not force a
         useless retransmission. *)
      Netsim.send t.net ~src:node ~dst:origin ~kind:Traffic.Ack ~size:ack_size
        (Ack { xid; frag })
  | Ack { xid; frag } -> (
      match Hashtbl.find_opt t.requests xid with
      | Some pending when not pending.confirmed -> (
          let acker = Node_id.to_int packet.Netsim.src in
          match Hashtbl.find_opt pending.per_dst acker with
          | Some state
            when frag >= 0
                 && frag < Array.length state.missing
                 && state.missing.(frag) ->
              state.missing.(frag) <- false;
              if not (Array.exists Fun.id state.missing) then begin
                pending.acked <- pending.acked + 1;
                if pending.acked >= pending.h then begin
                  pending.confirmed <- true;
                  pending.on_confirm ~acked:pending.acked
                end
              end
          | Some _ | None -> ())
      | Some _ | None -> ())

let attach t node handler =
  if Hashtbl.mem t.handlers node then
    invalid_arg "Transport.attach: node already attached";
  Hashtbl.replace t.handlers node handler;
  Netsim.attach t.net node (on_frame t node)

let transmit t pending ~first =
  let frags = Array.length pending.frag_sizes in
  pending.last_sent <- Sim.Engine.now (Netsim.engine t.net);
  Hashtbl.iter
    (fun dst_int state ->
      Array.iteri
        (fun frag missing ->
          if missing then begin
            if not first then t.retransmissions <- t.retransmissions + 1;
            if frags > 1 then t.fragments_sent <- t.fragments_sent + 1;
            Netsim.send t.net ~src:pending.src ~dst:(Node_id.of_int dst_int)
              ~kind:pending.kind ~size:pending.frag_sizes.(frag)
              (Payload
                 {
                   xid = pending.xid;
                   origin = pending.src;
                   frag;
                   body = pending.body;
                 })
          end)
        state.missing)
    pending.per_dst

let arm_retry t pending =
  Sim.Engine.post_after (Netsim.engine t.net) t.retry_kind
    ~delay:t.retry_interval pending.xid

(* The request's retry event, still queued when it was confirmed, is also
   its expiry: it drops the request once its last copies have landed.  A
   copy sent at [last_sent] lands by [last_sent + max_latency], and an
   event for that very tick posted after the send runs after the copy. *)
let expire t pending =
  let quiet = Sim.Ticks.add pending.last_sent t.max_latency in
  if Sim.Ticks.(Sim.Engine.now (Netsim.engine t.net) < quiet) then
    Sim.Engine.post (Netsim.engine t.net) t.retry_kind ~at:quiet pending.xid
  else Hashtbl.remove t.requests pending.xid

let retry t xid =
  match Hashtbl.find_opt t.requests xid with
  | None -> ()
  | Some pending ->
      if pending.confirmed then expire t pending
      else if pending.retries_left > 0 then begin
        pending.retries_left <- pending.retries_left - 1;
        transmit t pending ~first:false;
        arm_retry t pending
      end
      else begin
        (* The primitive never fails: confirm with whatever we got. *)
        pending.confirmed <- true;
        expire t pending;
        pending.on_confirm ~acked:pending.acked
      end

let create ?latency ?retry_interval ?max_retries ?mtu engine ~fault ~rng () =
  let retry_interval =
    Option.value retry_interval ~default:(Sim.Ticks.of_int Sim.Ticks.per_rtd)
  in
  let max_retries = Option.value max_retries ~default:4 in
  (match mtu with
  | Some mtu when mtu <= fragment_header ->
      invalid_arg "Transport.create: mtu too small"
  | Some _ | None -> ());
  (* The transport does not exist yet when its retry kind is registered. *)
  let retry_to = ref ignore in
  let net = Netsim.create ?latency engine ~fault ~rng () in
  let latency = Option.value latency ~default:Netsim.default_latency in
  let t =
    {
      net;
      retry_interval;
      max_retries;
      mtu;
      handlers = Hashtbl.create 64;
      requests = Hashtbl.create 64;
      max_latency =
        Sim.Ticks.add latency.Netsim.base
          (Sim.Ticks.of_int (max 0 (latency.Netsim.jitter - 1)));
      retry_kind =
        Sim.Engine.register engine ~label:"net.retry" (fun xid ->
            !retry_to xid);
      next_xid = 0;
      retransmissions = 0;
      fragments_sent = 0;
    }
  in
  retry_to := retry t;
  t

let request t ~src ~dsts ~h ~kind ~size ~on_confirm body =
  if dsts = [] then invalid_arg "Transport.request: empty destination set";
  if h < 1 || h > List.length dsts then
    invalid_arg "Transport.request: h out of range";
  let xid = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  let frag_sizes = fragment_sizes t size in
  let per_dst = Hashtbl.create (List.length dsts) in
  List.iter
    (fun dst ->
      Hashtbl.replace per_dst (Node_id.to_int dst)
        {
          missing = Array.make (Array.length frag_sizes) true;
          received = Array.make (Array.length frag_sizes) false;
        })
    dsts;
  let pending =
    {
      xid;
      src;
      h;
      kind;
      frag_sizes;
      body;
      per_dst;
      acked = 0;
      retries_left = t.max_retries;
      confirmed = false;
      last_sent = Sim.Ticks.zero;
      on_confirm;
    }
  in
  Hashtbl.replace t.requests xid pending;
  transmit t pending ~first:true;
  arm_retry t pending
