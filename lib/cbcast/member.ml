type reason = Excluded

type 'a action =
  | Multicast of 'a Cb_wire.body
  | Unicast of Net.Node_id.t * 'a Cb_wire.body
  | Delivered of 'a Cb_wire.data
  | View_installed of { view_id : int; members : bool array }
  | Flush_begun of int
  | Halted of reason

type 'a submission = { payload : 'a; size : int }

type 'a flush_state = {
  f_view : int;
  f_members : bool array;  (* proposed composition *)
  f_coordinator : Net.Node_id.t;
  f_collected : (int, 'a Cb_wire.data list) Hashtbl.t;  (* coordinator side *)
  mutable f_awaiting : Net.Node_id.Set.t;
  mutable f_deadline : int;  (* subrun at which this phase times out *)
}

type 'a phase = Normal | Flushing of 'a flush_state

type 'a t = {
  id : Net.Node_id.t;
  n : int;
  k : int;
  mutable view_id : int;
  members : bool array;
  vt : Vclock.t;  (* delivered vector *)
  mutable buffer : 'a Cb_wire.data list;
  history : (int * int, 'a Cb_wire.data) Hashtbl.t;  (* (sender, seq) *)
  stable : Vclock.t;
  last_heard : int array;  (* subrun we last heard from each member *)
  mutable suspects : Net.Node_id.Set.t;
  mutable token_in_flight : bool;
  mutable token_launched : int;  (* subrun the current token lap started *)
  sap : 'a submission Queue.t;
  mutable phase : 'a phase;
  mutable halted : bool;
  mutable last_data_subrun : int;  (* last subrun we multicast a data msg *)
  mutable last_heartbeat_subrun : int;
  default_payload_size : int;
}

let create ~n ~k id =
  if n <= 0 then invalid_arg "Member.create: n must be positive";
  if k <= 0 then invalid_arg "Member.create: k must be positive";
  {
    id;
    n;
    k;
    view_id = 0;
    members = Array.make n true;
    vt = Vclock.create ~n;
    buffer = [];
    history = Hashtbl.create 256;
    stable = Vclock.create ~n;
    last_heard = Array.make n 0;
    suspects = Net.Node_id.Set.empty;
    token_in_flight = false;
    token_launched = 0;
    sap = Queue.create ();
    phase = Normal;
    halted = false;
    last_data_subrun = -1;
    last_heartbeat_subrun = -1;
    default_payload_size = 64;
  }

let id t = t.id
let active t = not t.halted
let view_id t = t.view_id
let members t = Array.copy t.members
let flushing t = match t.phase with Normal -> false | Flushing _ -> true
let buffered t = List.length t.buffer
let unstable t = Hashtbl.length t.history
let delivered_vt t = Vclock.copy t.vt
let sap_backlog t = Queue.length t.sap

let submit ?size t payload =
  let size = Option.value size ~default:t.default_payload_size in
  Queue.push { payload; size } t.sap

let me t = Net.Node_id.to_int t.id

let alive_in_view t node =
  t.members.(Net.Node_id.to_int node)
  && not (Net.Node_id.Set.mem node t.suspects)

(* Lowest-id member of the view that is not suspected: the ranking rule ISIS
   uses to pick the flush coordinator and the token initiator. *)
let ranked_leader t =
  let rec scan i =
    if i >= t.n then None
    else
      let node = Net.Node_id.of_int i in
      if alive_in_view t node then Some node else scan (i + 1)
  in
  scan 0

let next_in_ring t =
  let rec scan step =
    if step > t.n then None
    else
      let i = (me t + step) mod t.n in
      let node = Net.Node_id.of_int i in
      if alive_in_view t node && i <> me t then Some node else scan (step + 1)
  in
  scan 1

(* -- delivery ---------------------------------------------------------- *)

let store_history t (d : 'a Cb_wire.data) =
  Hashtbl.replace t.history (Net.Node_id.to_int d.sender, Cb_wire.seq d) d

let gc_history t =
  let victims =
    Hashtbl.fold
      (fun (sender, seq) _ acc ->
        if seq <= Vclock.get t.stable (Net.Node_id.of_int sender) then
          (sender, seq) :: acc
        else acc)
      t.history []
  in
  List.iter (Hashtbl.remove t.history) victims

let deliver_one t d =
  assert (Cb_wire.seq d = Vclock.get t.vt d.Cb_wire.sender + 1);
  Vclock.tick t.vt d.Cb_wire.sender;
  store_history t d;
  Delivered d

let deliverable t d =
  Vclock.deliverable ~msg_vt:d.Cb_wire.vt ~from:d.Cb_wire.sender ~local:t.vt

let duplicate t d = Cb_wire.seq d <= Vclock.get t.vt d.Cb_wire.sender

(* Deliver everything in the buffer that the current vector admits, to a
   fixpoint, in deterministic (sender, seq) order. *)
let drain_buffer t =
  let actions = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    t.buffer <- List.filter (fun d -> not (duplicate t d)) t.buffer;
    let ready, rest = List.partition (deliverable t) t.buffer in
    match
      List.sort
        (fun a b ->
          let c = Net.Node_id.compare a.Cb_wire.sender b.Cb_wire.sender in
          if c <> 0 then c else compare (Cb_wire.seq a) (Cb_wire.seq b))
        ready
    with
    | [] -> t.buffer <- rest
    | first :: others ->
        (* Deliver only the first, then re-check: one delivery can change
           what is deliverable. *)
        actions := deliver_one t first :: !actions;
        t.buffer <- others @ rest;
        progress := true
  done;
  List.rev !actions

(* Deliver [d] if possible, then drain the buffer. *)
let try_deliver t d =
  if duplicate t d then []
  else if not (deliverable t d) then begin
    if
      not
        (List.exists
           (fun b ->
             Net.Node_id.equal b.Cb_wire.sender d.Cb_wire.sender
             && Cb_wire.seq b = Cb_wire.seq d)
           t.buffer)
    then t.buffer <- d :: t.buffer;
    []
  end
  else begin
    (* Bind the head delivery first: OCaml evaluates [::] right to left, and
       draining the buffer before delivering [d] could deliver a buffered
       duplicate of [d] and double-tick the vector. *)
    let head = deliver_one t d in
    head :: drain_buffer t
  end

(* -- flush ------------------------------------------------------------- *)

let unstable_msgs t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.history []
  |> List.sort (fun a b ->
         let c = Net.Node_id.compare a.Cb_wire.sender b.Cb_wire.sender in
         if c <> 0 then c else compare (Cb_wire.seq a) (Cb_wire.seq b))

let proposed_members t =
  let proposal = Array.copy t.members in
  Net.Node_id.Set.iter
    (fun node -> proposal.(Net.Node_id.to_int node) <- false)
    t.suspects;
  proposal

let begin_flush t ~subrun =
  let view = t.view_id + 1 in
  let proposal = proposed_members t in
  let awaiting = ref Net.Node_id.Set.empty in
  Array.iteri
    (fun i member ->
      if member && i <> me t then
        awaiting := Net.Node_id.Set.add (Net.Node_id.of_int i) !awaiting)
    proposal;
  let flush =
    {
      f_view = view;
      f_members = proposal;
      f_coordinator = t.id;
      f_collected = Hashtbl.create 16;
      f_awaiting = !awaiting;
      f_deadline = subrun + t.k;
    }
  in
  Hashtbl.replace flush.f_collected (me t) (unstable_msgs t);
  t.phase <- Flushing flush;
  [
    Flush_begun view;
    Multicast
      (Cb_wire.Flush_req { view_id = view; members = proposal; coordinator = t.id });
  ]

let install_view t ~view_id ~members:new_members ~retransmit =
  t.view_id <- view_id;
  Array.blit new_members 0 t.members 0 t.n;
  t.suspects <- Net.Node_id.Set.empty;
  t.phase <- Normal;
  t.token_in_flight <- false;
  if not t.members.(me t) then begin
    t.halted <- true;
    [ Halted Excluded ]
  end
  else begin
    let installed = View_installed { view_id; members = Array.copy new_members } in
    (* Integrate the unstable messages the coordinator redistributed, then
       deliver everything that was buffered while processing was blocked. *)
    let delivered = List.concat_map (fun d -> try_deliver t d) retransmit in
    let drained = drain_buffer t in
    (installed :: delivered) @ drained
  end

let finish_flush t flush =
  let union = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ msgs ->
      List.iter
        (fun d ->
          Hashtbl.replace union (Net.Node_id.to_int d.Cb_wire.sender, Cb_wire.seq d) d)
        msgs)
    flush.f_collected;
  let retransmit = Hashtbl.fold (fun _ d acc -> d :: acc) union [] in
  let view_pdu =
    Cb_wire.New_view
      { view_id = flush.f_view; members = flush.f_members; retransmit }
  in
  let local =
    install_view t ~view_id:flush.f_view ~members:flush.f_members ~retransmit
  in
  Multicast view_pdu :: local

(* -- round hook -------------------------------------------------------- *)

let generate_data t ~subrun =
  match t.phase with
  | Flushing _ -> []
  | Normal ->
      if Queue.is_empty t.sap || t.halted then []
      else begin
        t.last_data_subrun <- subrun;
        let { payload; size } = Queue.pop t.sap in
        Vclock.tick t.vt t.id;
        let d =
          {
            Cb_wire.sender = t.id;
            view_id = t.view_id;
            vt = Vclock.copy t.vt;
            payload;
            payload_size = size;
          }
        in
        store_history t d;
        [ Multicast (Cb_wire.Data d); Delivered d ]
      end

let detect_failures t ~subrun =
  if subrun <= t.k then []
  else begin
    let newly = ref [] in
    Array.iteri
      (fun i member ->
        if member && i <> me t then begin
          let node = Net.Node_id.of_int i in
          if
            subrun - t.last_heard.(i) >= t.k
            && not (Net.Node_id.Set.mem node t.suspects)
          then begin
            t.suspects <- Net.Node_id.Set.add node t.suspects;
            newly := node :: !newly
          end
        end)
      t.members;
    !newly
  end

let heartbeat t ~subrun =
  (* Keep-alive: a process with no data traffic in the current subrun
     multicasts its delivery vector so peers' failure detectors keep
     advancing — also during a flush, where data traffic is suspended.
     The worst-case silence of a healthy process is then one subrun, safely
     below the K-subrun suspicion threshold. *)
  if t.last_data_subrun < subrun && t.last_heartbeat_subrun < subrun then begin
    t.last_heartbeat_subrun <- subrun;
    [ Multicast (Cb_wire.Heartbeat { vt = Vclock.copy t.vt }) ]
  end
  else []

let on_round t ~subrun =
  if t.halted then []
  else begin
    let newly_suspected =
      (* The flush protocol has its own coordinator timeout; the general
         detector is suspended while one is running. *)
      match t.phase with Normal -> detect_failures t ~subrun | Flushing _ -> []
    in
    match t.phase with
    | Normal ->
        let flush_actions =
          if not (Net.Node_id.Set.is_empty t.suspects) then
            match ranked_leader t with
            | Some leader when Net.Node_id.equal leader t.id ->
                begin_flush t ~subrun
            | Some leader ->
                List.map
                  (fun suspect ->
                    Unicast
                      (leader, Cb_wire.Suspect { suspect; reporter = t.id }))
                  newly_suspected
            | None -> []
          else []
        in
        let token_actions =
          match t.phase with
          | Flushing _ -> []
          | Normal -> (
              match ranked_leader t with
              | Some leader when Net.Node_id.equal leader t.id -> (
                  (* A lap that outlived n + K subruns died at a crashed hop:
                     relaunch it. *)
                  let lost =
                    t.token_in_flight && subrun - t.token_launched > t.n + t.k
                  in
                  if t.token_in_flight && not lost then []
                  else
                    match next_in_ring t with
                    | Some next ->
                        t.token_in_flight <- true;
                        t.token_launched <- subrun;
                        [
                          Unicast
                            ( next,
                              Cb_wire.Token
                                { initiator = t.id; acc = Vclock.copy t.vt } );
                        ]
                    | None -> [])
              | Some _ | None -> [])
        in
        flush_actions @ token_actions @ heartbeat t ~subrun
        @ generate_data t ~subrun
    | Flushing flush ->
        heartbeat t ~subrun
        @
        if Net.Node_id.equal flush.f_coordinator t.id then begin
          if subrun >= flush.f_deadline then begin
            (* Non-repliers are dropped from the proposal and the flush
               restarts — the paper's "(f+1)" factor. *)
            Net.Node_id.Set.iter
              (fun node -> t.suspects <- Net.Node_id.Set.add node t.suspects)
              flush.f_awaiting;
            begin_flush t ~subrun
          end
          else []
        end
        else if subrun >= flush.f_deadline then begin
          (* The coordinator went silent: suspect it; if I am now the ranked
             leader, take over and restart the flush. *)
          t.suspects <- Net.Node_id.Set.add flush.f_coordinator t.suspects;
          match ranked_leader t with
          | Some leader when Net.Node_id.equal leader t.id ->
              begin_flush t ~subrun
          | Some _ | None ->
              t.phase <-
                Flushing { flush with f_deadline = subrun + (2 * t.k) };
              []
        end
        else []
  end

(* -- PDU handler ------------------------------------------------------- *)

let note_heard t ~subrun node = t.last_heard.(Net.Node_id.to_int node) <- subrun

let handle t ~subrun ~from body =
  if t.halted then []
  else begin
    note_heard t ~subrun from;
    match body with
    | Cb_wire.Heartbeat _ -> []
    | Cb_wire.Data d -> (
        store_history t d;
        match t.phase with
        | Normal -> try_deliver t d
        | Flushing _ ->
            (* Processing is suspended during a flush; just buffer. *)
            if Cb_wire.seq d > Vclock.get t.vt d.Cb_wire.sender then
              t.buffer <- d :: t.buffer;
            [])
    | Cb_wire.Token { initiator; acc } ->
        if flushing t then []
        else begin
          Vclock.min_into acc t.vt;
          if Net.Node_id.equal initiator t.id then begin
            (* The token completed a lap: publish the stable cut. *)
            t.token_in_flight <- false;
            Vclock.merge t.stable acc;
            gc_history t;
            [ Multicast (Cb_wire.Stability { vt = acc }) ]
          end
          else
            match next_in_ring t with
            | Some next when not (Net.Node_id.equal next t.id) ->
                [ Unicast (next, Cb_wire.Token { initiator; acc }) ]
            | Some _ | None -> []
        end
    | Cb_wire.Stability { vt } ->
        Vclock.merge t.stable vt;
        gc_history t;
        []
    | Cb_wire.Suspect { suspect; _ } -> (
        t.suspects <- Net.Node_id.Set.add suspect t.suspects;
        match t.phase with
        | Flushing _ -> []
        | Normal -> (
            match ranked_leader t with
            | Some leader when Net.Node_id.equal leader t.id ->
                begin_flush t ~subrun
            | Some _ | None -> []))
    | Cb_wire.Flush_req { view_id; members = proposal; coordinator } ->
        if view_id <= t.view_id then []
        else begin
          let flush =
            {
              f_view = view_id;
              f_members = proposal;
              f_coordinator = coordinator;
              f_collected = Hashtbl.create 1;
              f_awaiting = Net.Node_id.Set.empty;
              f_deadline = subrun + (2 * t.k);
            }
          in
          t.phase <- Flushing flush;
          [
            Flush_begun view_id;
            Unicast
              ( coordinator,
                Cb_wire.Flush_unstable
                  { view_id; sender = t.id; msgs = unstable_msgs t } );
          ]
        end
    | Cb_wire.Flush_unstable { view_id; sender; msgs } -> (
        match t.phase with
        | Flushing flush
          when Net.Node_id.equal flush.f_coordinator t.id
               && view_id = flush.f_view ->
            Hashtbl.replace flush.f_collected (Net.Node_id.to_int sender) msgs;
            flush.f_awaiting <- Net.Node_id.Set.remove sender flush.f_awaiting;
            if Net.Node_id.Set.is_empty flush.f_awaiting then finish_flush t flush
            else []
        | Flushing _ | Normal -> [])
    | Cb_wire.New_view { view_id; members = new_members; retransmit } ->
        if view_id <= t.view_id then []
        else install_view t ~view_id ~members:new_members ~retransmit
  end
