type 'a t = {
  delivery : Causal.Delivery.t;
  history : 'a Causal.History.t;
  waiting : 'a Causal.Waiting_list.t;
}

let create ~n =
  {
    delivery = Causal.Delivery.create ~n;
    history = Causal.History.create ~n;
    waiting = Causal.Waiting_list.create ~n;
  }

let n t = Causal.Delivery.n t.delivery

(* -- processing -------------------------------------------------------- *)

let process_one t processed msg =
  Causal.Delivery.mark t.delivery msg.Causal.Causal_msg.mid;
  Causal.History.store t.history msg;
  processed msg

(* Each processed message can make further waiting ones processable.
   Top-level recursion so the per-delivery cascade allocates no closure. *)
let rec drain t processed =
  match Causal.Waiting_list.take_processable t.waiting t.delivery with
  | None -> ()
  | Some unblocked ->
      process_one t processed unblocked;
      drain t processed

let process t ~processed msg =
  process_one t processed msg;
  if !Sim.Prof.on then Sim.Prof.enter "member.drain";
  drain t processed;
  if !Sim.Prof.on then Sim.Prof.exit ()

let receive t ~processed ~queued msg =
  let mid = msg.Causal.Causal_msg.mid in
  if Causal.Delivery.processed t.delivery mid then ()
  else if Causal.Delivery.processable t.delivery msg then
    process t ~processed msg
  else begin
    Causal.Waiting_list.add t.waiting msg;
    queued mid (Causal.Waiting_list.length t.waiting)
  end

(* -- purge ------------------------------------------------------------- *)

let purge t ~discarded (d : Decision.t) =
  if d.full_group then begin
    for j = 0 to n t - 1 do
      ignore
        (Causal.History.purge_upto t.history ~origin:(Net.Node_id.of_int j)
           ~seq:d.stable.(j))
    done;
    if !Sim.Prof.on then Sim.Prof.enter "member.discard";
    (* Accumulated in reverse, reversed once at the end: origins ascending,
       each origin's mids in discard order. *)
    let mids = ref [] in
    for j = 0 to n t - 1 do
      if
        (not d.alive.(j))
        && d.min_waiting.(j) > 0
        && d.min_waiting.(j) - d.max_processed.(j) > 1
      then
        mids :=
          List.rev_append
            (Causal.Waiting_list.discard_from t.waiting
               ~origin:(Net.Node_id.of_int j)
               ~seq:(d.max_processed.(j) + 1))
            !mids
    done;
    (match !mids with [] -> () | mids -> discarded (List.rev mids));
    if !Sim.Prof.on then Sim.Prof.exit ()
  end

(* -- recovery ---------------------------------------------------------- *)

let gap t ~self (d : Decision.t) j =
  d.max_processed.(j)
  > Causal.Delivery.last_processed t.delivery (Net.Node_id.of_int j)
  && not (Net.Node_id.equal d.most_updated.(j) self)

let gaps t ~self d =
  let count = ref 0 in
  for j = 0 to n t - 1 do
    if gap t ~self d j then incr count
  done;
  !count

let recover t ~self ~send (d : Decision.t) =
  for j = 0 to n t - 1 do
    if gap t ~self d j then begin
      let origin = Net.Node_id.of_int j in
      send d.most_updated.(j)
        (Wire.Recover_req
           {
             requester = self;
             origin;
             from_seq = Causal.Delivery.last_processed t.delivery origin + 1;
             to_seq = d.max_processed.(j);
           })
    end
  done

let serve history ~self ~send { Wire.requester; origin; from_seq; to_seq } =
  let to_seq = min to_seq (from_seq + 63) in
  match Causal.History.range history ~origin ~lo:from_seq ~hi:to_seq with
  | [] -> ()
  | messages ->
      send requester (Wire.Recover_reply { responder = self; messages })
