type reason = Declared_crashed | Decision_silence

let reason_to_string = function
  | Declared_crashed -> "declared crashed (suicide)"
  | Decision_silence -> "decision silence"

type 'a action =
  | Broadcast of 'a Total_wire.body
  | Send of Net.Node_id.t * 'a Total_wire.body
  | Processed of int * 'a Total_wire.data
  | Left of reason

type 'a submission = { payload : 'a; size : int }

module Mid_map = Causal.Mid.Map

type 'a t = {
  id : Net.Node_id.t;
  n : int;
  k : int;
  mutable pool : 'a Total_wire.data Mid_map.t;  (* received, unprocessed *)
  mutable processed_upto : int;
  history : (int, 'a Total_wire.data) Hashtbl.t;  (* by global sequence *)
  mutable decision : Total_decision.t;
  mutable decision_seen_this_subrun : bool;
  mutable silence : int;
  mutable next_seq : int;  (* own mid counter *)
  mutable pending_requests : Total_wire.request list;
  mutable coordinator_for : int option;
  mutable left : reason option;
  sap : 'a submission Queue.t;
  mutable subrun : int;
  default_payload_size : int;
}

let create ~n ~k id =
  if n <= 0 then invalid_arg "Member.create: n must be positive";
  if k <= 0 then invalid_arg "Member.create: k must be positive";
  {
    id;
    n;
    k;
    pool = Mid_map.empty;
    processed_upto = 0;
    history = Hashtbl.create 256;
    decision = Total_decision.initial ~n;
    decision_seen_this_subrun = false;
    silence = 0;
    next_seq = 1;
    pending_requests = [];
    coordinator_for = None;
    left = None;
    sap = Queue.create ();
    subrun = -1;
    default_payload_size = 64;
  }

let id t = t.id
let active t = t.left = None
let processed_upto t = t.processed_upto
let pool_size t = Mid_map.cardinal t.pool
let history_length t = Hashtbl.length t.history
let latest_decision t = t.decision
let sap_backlog t = Queue.length t.sap

let submit ?size t payload =
  let size = Option.value size ~default:t.default_payload_size in
  Queue.push { payload; size } t.sap

let leave t reason =
  t.left <- Some reason;
  [ Left reason ]

(* Process, in global order, every sequenced message we hold. *)
let drain t =
  let actions = ref [] in
  let continue = ref true in
  while !continue do
    let seq = t.processed_upto + 1 in
    match Total_decision.assignment t.decision seq with
    | None -> continue := false
    | Some mid -> (
        match Mid_map.find_opt mid t.pool with
        | None -> continue := false
        | Some data ->
            t.pool <- Mid_map.remove mid t.pool;
            t.processed_upto <- seq;
            Hashtbl.replace t.history seq data;
            actions := Processed (seq, data) :: !actions)
  done;
  List.rev !actions

let gc_history t =
  let stable = t.decision.Total_decision.stable_seq in
  let victims =
    Hashtbl.fold (fun seq _ acc -> if seq <= stable then seq :: acc else acc)
      t.history []
  in
  List.iter (Hashtbl.remove t.history) victims

let adopt_decision t d =
  if not (Total_decision.newer d ~than:t.decision) then []
  else begin
    t.decision <- d;
    t.decision_seen_this_subrun <- true;
    t.silence <- 0;
    if not d.Total_decision.alive.(Net.Node_id.to_int t.id) then
      leave t Declared_crashed
    else begin
      gc_history t;
      drain t
    end
  end

let unsequenced t =
  Mid_map.fold
    (fun mid _ acc ->
      if Total_decision.is_assigned t.decision mid then acc else mid :: acc)
    t.pool []
  |> List.rev

let my_request t ~subrun =
  {
    Total_wire.sender = t.id;
    subrun;
    unsequenced = unsequenced t;
    processed_upto = t.processed_upto;
    prev_decision = t.decision;
  }

let generate_data t =
  if Queue.is_empty t.sap then []
  else begin
    let { payload; size } = Queue.pop t.sap in
    let mid = Causal.Mid.make ~origin:t.id ~seq:t.next_seq in
    t.next_seq <- t.next_seq + 1;
    let data = { Total_wire.mid; payload; payload_size = size } in
    (* Unlike urcgc, the sender cannot process its own message yet: it needs
       the global order first. *)
    t.pool <- Mid_map.add mid data t.pool;
    [ Broadcast (Total_wire.Data data) ]
  end

(* Recovery: assigned-but-missing data below the decision's frontier. *)
let recovery_requests t =
  let d = t.decision in
  let target_seq = min (t.processed_upto + 64) (d.Total_decision.next_seq - 1) in
  if target_seq <= t.processed_upto then []
  else begin
    (* Is the very next message missing its data (rather than unassigned)? *)
    match Total_decision.assignment d (t.processed_upto + 1) with
    | Some mid when not (Mid_map.mem mid t.pool) ->
        let responder = d.Total_decision.coordinator in
        if Net.Node_id.equal responder t.id then []
        else
          [
            Send
              ( responder,
                Total_wire.Recover_req
                  {
                    requester = t.id;
                    from_seq = t.processed_upto + 1;
                    to_seq = target_seq;
                  } );
          ]
    | Some _ | None -> []
  end

let begin_subrun t ~subrun =
  if not (active t) then []
  else begin
    if t.subrun >= 0 && not t.decision_seen_this_subrun then
      t.silence <- t.silence + 1;
    t.subrun <- subrun;
    t.decision_seen_this_subrun <- false;
    (* Silent for 2K subruns: the same conservative limit as urcgc's
       default [Config.silence_limit]. *)
    if t.silence >= 2 * t.k then leave t Decision_silence
    else begin
      let coordinator =
        Urcgc.Coordinator.rotation ~alive:t.decision.Total_decision.alive
          ~subrun
      in
      let request = my_request t ~subrun in
      let request_actions =
        if Net.Node_id.equal coordinator t.id then begin
          t.coordinator_for <- Some subrun;
          t.pending_requests <- [ request ];
          []
        end
        else begin
          t.coordinator_for <- None;
          t.pending_requests <- [];
          [ Send (coordinator, Total_wire.Request request) ]
        end
      in
      request_actions @ recovery_requests t @ generate_data t
    end
  end

let mid_subrun t ~subrun =
  if not (active t) then []
  else begin
    let decision_actions =
      match t.coordinator_for with
      | Some s when s = subrun ->
          let requests = t.pending_requests in
          t.pending_requests <- [];
          t.coordinator_for <- None;
          let prev = Total_coordinator.merge_prev t.decision requests in
          let d =
            Total_coordinator.compute ~n:t.n ~k:t.k ~subrun ~coordinator:t.id
              ~prev ~requests
          in
          let local = adopt_decision t d in
          if active t then Broadcast (Total_wire.Decision_pdu d) :: local
          else local
      | Some _ | None -> []
    in
    if active t then decision_actions @ generate_data t else decision_actions
  end

let handle t body =
  if not (active t) then []
  else
    match body with
    | Total_wire.Data data ->
        let seq_of_mid mid =
          (* Already processed?  Look the mid up in the window below our
             processed point via the decision. *)
          let rec scan seq =
            if seq > t.processed_upto then false
            else
              match Total_decision.assignment t.decision seq with
              | Some m when Causal.Mid.equal m mid -> true
              | Some _ | None -> scan (seq + 1)
          in
          scan (max 1 (t.decision.Total_decision.first_assigned))
        in
        if Mid_map.mem data.mid t.pool || seq_of_mid data.Total_wire.mid then []
        else begin
          t.pool <- Mid_map.add data.Total_wire.mid data t.pool;
          drain t
        end
    | Total_wire.Request r ->
        (match t.coordinator_for with
        | Some s when s = r.Total_wire.subrun ->
            let already =
              List.exists
                (fun (q : Total_wire.request) ->
                  Net.Node_id.equal q.sender r.sender)
                t.pending_requests
            in
            if not already then t.pending_requests <- r :: t.pending_requests
        | Some _ | None -> ());
        []
    | Total_wire.Decision_pdu d -> adopt_decision t d
    | Total_wire.Recover_req { requester; from_seq; to_seq } ->
        let messages =
          List.filter_map
            (fun seq ->
              match Hashtbl.find_opt t.history seq with
              | Some data -> Some (seq, data)
              | None -> None)
            (List.init (max 0 (to_seq - from_seq + 1)) (fun i -> from_seq + i))
        in
        if messages = [] then []
        else
          [
            Send
              (requester, Total_wire.Recover_reply { responder = t.id; messages });
          ]
    | Total_wire.Recover_reply { messages; _ } ->
        List.iter
          (fun (seq, data) ->
            (* Racing replies can carry already-processed sequences; the
               sequence number makes the duplicate check exact. *)
            if
              seq > t.processed_upto
              && not (Mid_map.mem data.Total_wire.mid t.pool)
            then t.pool <- Mid_map.add data.Total_wire.mid data t.pool)
          messages;
        drain t
