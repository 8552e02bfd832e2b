type reason =
  | Declared_crashed
  | Decision_silence
  | Recovery_exhausted
  | Partitioned

let reason_to_string = function
  | Declared_crashed -> "declared crashed (suicide)"
  | Decision_silence -> "decision silence"
  | Recovery_exhausted -> "recovery exhausted"
  | Partitioned -> "partitioned (solo view)"

type 'a action =
  | Broadcast of 'a Wire.body
  | Send of Net.Node_id.t * 'a Wire.body
  | Processed of 'a Causal.Causal_msg.t
  | Confirmed of Causal.Mid.t
  | Discarded of Causal.Mid.t list
  | Queued of Causal.Mid.t * int
  | Left of reason

(* Actions are streamed into a sink as they happen instead of accumulated
   into a list and replayed: on the n >> 100 hot path the per-message cons
   cells and [List.rev]/[List.concat_map] plumbing dominated the allocation
   profile.  Member state never depends on a sink callback's effects
   (callbacks may not call back into this member), so [collect] reads the
   same actions as a list.  test/member_stream.ml pins the action streams of
   a randomized n = 4 drive as a golden. *)
type 'a sink = {
  emit_broadcast : 'a Wire.body -> unit;
  emit_send : Net.Node_id.t -> 'a Wire.body -> unit;
  emit_processed : 'a Causal.Causal_msg.t -> unit;
  emit_confirmed : Causal.Mid.t -> unit;
  emit_discarded : Causal.Mid.t list -> unit;
  emit_queued : Causal.Mid.t -> int -> unit;
  emit_left : reason -> unit;
}

let emit_action sink = function
  | Broadcast body -> sink.emit_broadcast body
  | Send (dst, body) -> sink.emit_send dst body
  | Processed msg -> sink.emit_processed msg
  | Confirmed mid -> sink.emit_confirmed mid
  | Discarded mids -> sink.emit_discarded mids
  | Queued (mid, depth) -> sink.emit_queued mid depth
  | Left reason -> sink.emit_left reason

type 'a submission = { payload : 'a; deps : Causal.Mid.t list option; size : int }

type 'a t = {
  id : Net.Node_id.t;
  config : Config.t;
  gmt : 'a Gmt.t;
  view : Causal.Group_view.t;
  sap : 'a submission Queue.t;
  mutable decision : Decision.t;
  mutable decision_seen_this_subrun : bool;
  mutable next_seq : int;
  mutable silence : int;
  mutable recovery_stalled : int;
  mutable recovery_baseline : int;
  mutable pending_requests : Wire.request list;
  mutable coordinator_for : int option;
  mutable left : reason option;
  mutable flow_blocked : bool;
  mutable subrun : int;
}

let create ?decision config id =
  let n = config.Config.n in
  (* Decisions are immutable once built ([Coordinator.compute] copies, never
     mutates), so a cluster can hand all its members one shared initial
     decision instead of n private copies of the same twelve arrays. *)
  let decision =
    match decision with Some d -> d | None -> Decision.initial ~n
  in
  {
    id;
    config;
    gmt = Gmt.create ~n;
    view = Causal.Group_view.create ~n;
    sap = Queue.create ();
    decision;
    decision_seen_this_subrun = false;
    next_seq = 1;
    silence = 0;
    recovery_stalled = 0;
    recovery_baseline = 0;
    pending_requests = [];
    coordinator_for = None;
    left = None;
    flow_blocked = false;
    subrun = -1;
  }

let id t = t.id
let config t = t.config
let active t = t.left = None
let left_reason t = t.left
let view t = t.view
let latest_decision t = t.decision
let history_length t = Causal.History.length t.gmt.history
let waiting_length t = Causal.Waiting_list.length t.gmt.waiting
let processed_count t = Causal.Delivery.count t.gmt.delivery
let last_processed t origin =
  Causal.Delivery.last_processed t.gmt.delivery origin
let flow_blocked t = t.flow_blocked
let sap_backlog t = Queue.length t.sap

let submit ?deps ?size t payload =
  let size = Option.value size ~default:t.config.Config.payload_size in
  Queue.push { payload; deps; size } t.sap

let leave t sink reason =
  t.left <- Some reason;
  sink.emit_left reason

(* -- data generation --------------------------------------------------- *)

(* The sender's frontier, as an exact-size array sorted by [Mid.compare]
   (origins ascend, one dep per origin). *)
let frontier t =
  let n = t.config.Config.n in
  let self = Net.Node_id.to_int t.id in
  let count = ref 0 in
  for j = 0 to n - 1 do
    if j <> self && last_processed t (Net.Node_id.of_int j) > 0 then incr count
  done;
  let deps = ref [||] in
  let k = ref 0 in
  for j = 0 to n - 1 do
    if j <> self then begin
      let origin = Net.Node_id.of_int j in
      let seq = last_processed t origin in
      if seq > 0 then begin
        let dep = Causal.Mid.make ~origin ~seq in
        if !k = 0 then deps := Array.make !count dep;
        !deps.(!k) <- dep;
        incr k
      end
    end
  done;
  !deps

let update_flow_control t =
  match t.config.Config.flow_threshold with
  | None -> ()
  | Some threshold -> t.flow_blocked <- history_length t >= threshold

let generate_data t sink =
  update_flow_control t;
  if t.flow_blocked || Queue.is_empty t.sap then ()
  else begin
    if !Sim.Prof.on then Sim.Prof.enter "member.submit";
    let { payload; deps; size } = Queue.pop t.sap in
    let mid = Causal.Mid.make ~origin:t.id ~seq:t.next_seq in
    t.next_seq <- t.next_seq + 1;
    let msg =
      match deps with
      | Some deps ->
          List.iter
            (fun dep ->
              if not (Causal.Delivery.processed t.gmt.delivery dep) then
                invalid_arg
                  (Format.asprintf
                     "Member.generate_data: explicit dependency %a not yet \
                      processed locally"
                     Causal.Mid.pp dep))
            deps;
          Causal.Causal_msg.make ~mid ~deps ~payload_size:size payload
      | None ->
          Causal.Causal_msg.of_sorted_deps ~mid ~deps:(frontier t)
            ~payload_size:size payload
    in
    (* The emission order is part of the contract: the broadcast, then the
       local processing cascade, then the confirmation.  The sender
       processes its own message immediately: its dependencies are all in
       its processed prefix by construction, and nothing the broadcast
       emission does reads the delivery state the cascade updates. *)
    sink.emit_broadcast (Wire.Data msg);
    Gmt.process t.gmt ~processed:sink.emit_processed msg;
    sink.emit_confirmed mid;
    if !Sim.Prof.on then Sim.Prof.exit ()
  end

(* -- decisions --------------------------------------------------------- *)

(* [evidence] says whether adopting [d] proves some *other* process is still
   running: the decision was issued by another coordinator, or (when we
   coordinated it ourselves) it aggregated a request from at least one other
   member.  Only such decisions may feed the liveness machinery — a solo
   process's own decisions are not evidence of a live group, and treating
   them as such is what kept the expelled-but-silenced zombie of
   docs/EXPLORE.md alive forever.  Singleton groups are exempt: no other
   process exists whose evidence could ever arrive. *)
let adopt_decision t sink ~evidence d =
  if Decision.newer d ~than:t.decision then begin
    if !Sim.Prof.on then Sim.Prof.enter "member.adopt";
    t.decision <- d;
    if evidence || t.config.Config.n = 1 then begin
      t.decision_seen_this_subrun <- true;
      t.silence <- 0
    end;
    Causal.Group_view.set_alive_array t.view d.Decision.alive;
    if not d.Decision.alive.(Net.Node_id.to_int t.id) then
      (* "When an alive process notices it is supposed dead, it commits
         suicide." *)
      leave t sink Declared_crashed
    else if t.config.Config.n > 1 && Causal.Group_view.cardinal t.view <= 1
    then
      (* Primary-partition discipline: in a multi-process group a view that
         degenerates to {self} is indistinguishable from being partitioned
         away from a surviving majority, so the process departs instead of
         coordinating a group nobody else belongs to. *)
      leave t sink Partitioned
    else Gmt.purge t.gmt ~discarded:sink.emit_discarded d;
    if !Sim.Prof.on then Sim.Prof.exit ()
  end

(* -- recovery ---------------------------------------------------------- *)

(* Returns [true] when the process leaves (recovery exhausted): [gaps] many
   recovery requests are outstanding this subrun. *)
let track_recovery_progress t sink ~gaps =
  if gaps = 0 then begin
    t.recovery_stalled <- 0;
    t.recovery_baseline <- processed_count t;
    false
  end
  else begin
    let count = processed_count t in
    if count > t.recovery_baseline then t.recovery_stalled <- 0
    else t.recovery_stalled <- t.recovery_stalled + 1;
    t.recovery_baseline <- count;
    if t.recovery_stalled >= t.config.Config.r then begin
      leave t sink Recovery_exhausted;
      true
    end
    else false
  end

(* Collects a sink's emissions into a list, in emission order.  The
   coordinator path of [mid_subrun] uses it to emit the decision broadcast
   before the adoption's local actions even though adoption runs first. *)
let collect f =
  let acc = ref [] in
  let push action = acc := action :: !acc in
  let sink =
    {
      emit_broadcast = (fun body -> push (Broadcast body));
      emit_send = (fun dst body -> push (Send (dst, body)));
      emit_processed = (fun msg -> push (Processed msg));
      emit_confirmed = (fun mid -> push (Confirmed mid));
      emit_discarded = (fun mids -> push (Discarded mids));
      emit_queued = (fun mid depth -> push (Queued (mid, depth)));
      emit_left = (fun reason -> push (Left reason));
    }
  in
  f sink;
  List.rev !acc

(* -- round hooks ------------------------------------------------------- *)

let my_request t ~subrun =
  {
    Wire.sender = t.id;
    subrun;
    last_processed = Causal.Delivery.vector t.gmt.delivery;
    waiting = Causal.Waiting_list.oldest_vector t.gmt.waiting;
    prev_decision = t.decision;
  }

let begin_subrun t sink ~subrun =
  if active t then begin
    (* Silence bookkeeping: a subrun elapsed without any decision. *)
    if t.subrun >= 0 && not t.decision_seen_this_subrun then
      t.silence <- t.silence + 1;
    t.subrun <- subrun;
    t.decision_seen_this_subrun <- false;
    if t.silence >= t.config.Config.silence_limit then
      leave t sink Decision_silence
    else begin
      let coordinator =
        (* [alive_raw]: rotation only reads the vector, no copy needed. *)
        Coordinator.rotation
          ~alive:(Causal.Group_view.alive_raw t.view)
          ~subrun
      in
      let request = my_request t ~subrun in
      let request_to =
        if Net.Node_id.equal coordinator t.id then begin
          t.coordinator_for <- Some subrun;
          t.pending_requests <- [ request ];
          None
        end
        else begin
          t.coordinator_for <- None;
          t.pending_requests <- [];
          Some coordinator
        end
      in
      (* The stall tracker must run — and may retire the process — before
         anything is emitted: the subrun that exhausts recovery emits
         [Left Recovery_exhausted] and no request, recovery or data. *)
      let gaps = Gmt.gaps t.gmt ~self:t.id t.decision in
      if not (track_recovery_progress t sink ~gaps) then begin
        (match request_to with
        | Some coordinator ->
            sink.emit_send coordinator (Wire.Request request)
        | None -> ());
        if gaps > 0 then
          Gmt.recover t.gmt ~self:t.id ~send:sink.emit_send t.decision;
        generate_data t sink
      end
    end
  end

let mid_subrun t sink ~subrun =
  if active t then begin
    (match t.coordinator_for with
    | Some s when s = subrun ->
        let requests = t.pending_requests in
        t.pending_requests <- [];
        t.coordinator_for <- None;
        if !Sim.Prof.on then Sim.Prof.enter "member.aggregate";
        let prev = Coordinator.merge_prev t.decision requests in
        let d =
          Coordinator.compute ~config:t.config ~subrun ~coordinator:t.id
            ~prev ~requests
        in
        if !Sim.Prof.on then Sim.Prof.exit ();
        let evidence =
          List.exists
            (fun (r : Wire.request) ->
              not (Net.Node_id.equal r.Wire.sender t.id))
            requests
        in
        (* The broadcast comes before the local adoption effects — but
           adoption must run first, since the broadcast's destination set is
           read from the adopted view, and a coordinator that departs on
           adopting its own decision broadcasts nothing.  The (rare, at most
           one Left or Discarded) local actions are buffered and replayed
           after the broadcast. *)
        let local = collect (fun s -> adopt_decision t s ~evidence d) in
        if active t then sink.emit_broadcast (Wire.Decision_pdu d);
        List.iter (emit_action sink) local
    | Some _ | None -> ());
    if active t then generate_data t sink
  end

(* -- PDU handler ------------------------------------------------------- *)

let handle t sink body =
  if active t then
    match body with
    | Wire.Data msg ->
        Gmt.receive t.gmt ~processed:sink.emit_processed
          ~queued:sink.emit_queued msg
    | Wire.Request r -> (
        match t.coordinator_for with
        | Some s when s = r.Wire.subrun ->
            let already =
              List.exists
                (fun (q : Wire.request) -> Net.Node_id.equal q.sender r.sender)
                t.pending_requests
            in
            if not already then t.pending_requests <- r :: t.pending_requests
        | Some _ | None -> ())
    | Wire.Decision_pdu d ->
        (* A decision arriving over the network was sent by its coordinator;
           it is evidence of another live process exactly when that
           coordinator is somebody else. *)
        adopt_decision t sink
          ~evidence:(not (Net.Node_id.equal d.Decision.coordinator t.id))
          d
    | Wire.Recover_req req ->
        Gmt.serve t.gmt.history ~self:t.id ~send:sink.emit_send req
    | Wire.Recover_reply { messages; _ } ->
        (* One closure per reply: a partial application of [Gmt.receive]
           would build a curried chain of them. *)
        List.iter
          (fun msg ->
            Gmt.receive t.gmt ~processed:sink.emit_processed
              ~queued:sink.emit_queued msg)
          messages
