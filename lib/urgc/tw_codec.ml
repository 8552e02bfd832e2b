module W = Net.Bytebuf.Writer
module R = Net.Bytebuf.Reader

let tag_data = 1
let tag_request = 2
let tag_decision = 3
let tag_recover_req = 4
let tag_recover_reply = 5

let u32_sentinel = 0xFFFFFFFF

let write_mid w mid =
  W.u32 w (Net.Node_id.to_int (Causal.Mid.origin mid));
  W.u32 w (Causal.Mid.seq mid)

let read_mid r =
  let origin = R.u32 r in
  let seq = R.u32 r in
  if seq < 1 then R.fail "mid: seq must be >= 1"
  else Causal.Mid.make ~origin:(Net.Node_id.of_int origin) ~seq

(* data: tag u8 | origin u24 | seq u32 | payload len u16 | pad u16 | payload
   — 8 + 4 + payload = Total_wire.data_size. *)
let write_data payload w (d : 'a Total_wire.data) =
  let body = payload.Net.Bytebuf.encode d.payload in
  if Bytes.length body <> d.payload_size then
    invalid_arg "Tw_codec: payload encoding disagrees with payload_size";
  W.u8 w tag_data;
  W.u24 w (Net.Node_id.to_int (Causal.Mid.origin d.mid));
  W.u32 w (Causal.Mid.seq d.mid);
  W.u16 w (Bytes.length body);
  W.u16 w 0;
  W.bytes w body

let read_data payload r =
  let origin = R.u24 r in
  let seq = R.u32 r in
  let payload_len = R.u16 r in
  let _pad = R.u16 r in
  if seq < 1 then R.fail "data: seq must be >= 1";
  let raw = R.bytes r payload_len in
  let value = R.of_result (payload.Net.Bytebuf.decode raw) in
  {
    Total_wire.mid = Causal.Mid.make ~origin:(Net.Node_id.of_int origin) ~seq;
    payload = value;
    payload_size = payload_len;
  }

(* decision: subrun+1 u32 | coordinator u32 | next_seq u32 |
   first_assigned u32 | stable_seq u32 | flags u8 | assignments, one mid
   (origin u32 | seq u32) per slot of next_seq - first_assigned |
   attempts n x u16 | acc_processed n x u32 (max_int as 0xFFFFFFFF) |
   alive bitmap | heard bitmap, ceil(n/8) bytes each — 21 + 8 window + 6n
   + 2 ceil(n/8) = Total_decision.encoded_size. *)
let write_decision w (d : Total_decision.t) =
  W.u32 w (d.subrun + 1);
  W.u32 w (Net.Node_id.to_int d.coordinator);
  W.u32 w d.next_seq;
  W.u32 w d.first_assigned;
  W.u32 w d.stable_seq;
  W.u8 w (if d.full_group then 1 else 0);
  Array.iter (write_mid w) d.assignments;
  Array.iter (W.u16 w) d.attempts;
  Array.iter
    (fun v -> W.u32 w (if v = max_int then u32_sentinel else v))
    d.acc_processed;
  W.bitmap w d.alive;
  W.bitmap w d.heard

let read_acc r =
  let v = R.u32 r in
  if v = u32_sentinel then max_int else v

let read_decision ~n r =
  let subrun_plus1 = R.u32 r in
  let coordinator = R.u32 r in
  let next_seq = R.u32 r in
  let first_assigned = R.u32 r in
  let stable_seq = R.u32 r in
  let flags = R.u8 r in
  let window = next_seq - first_assigned in
  if window < 0 then R.fail "decision: negative assignment window";
  let assignments = R.array r window read_mid in
  let attempts = R.array r n R.u16 in
  let acc_processed = R.array r n read_acc in
  let alive = R.bitmap r n in
  let heard = R.bitmap r n in
  {
    Total_decision.subrun = subrun_plus1 - 1;
    coordinator = Net.Node_id.of_int coordinator;
    next_seq;
    first_assigned;
    assignments;
    stable_seq;
    full_group = flags land 1 <> 0;
    attempts;
    alive;
    heard;
    acc_processed;
  }

(* request: tag u8 | sender u24 | subrun u32 | processed_upto u16 |
   count u16 | count unsequenced mids, 8 bytes each | the piggybacked
   decision — 12 + 8 count + Total_decision.encoded_size =
   Total_wire.body_size.  The writer refuses a processed_upto or count
   past 65535. *)
let write_request w (r : Total_wire.request) =
  W.u8 w tag_request;
  W.u24 w (Net.Node_id.to_int r.sender);
  W.u32 w r.subrun;
  W.u16 w r.processed_upto;
  W.u16 w (List.length r.unsequenced);
  List.iter (write_mid w) r.unsequenced;
  write_decision w r.prev_decision

let read_request ~n r =
  let sender = R.u24 r in
  let subrun = R.u32 r in
  let processed_upto = R.u16 r in
  let count = R.u16 r in
  let unsequenced = Array.to_list (R.array r count read_mid) in
  let prev_decision = read_decision ~n r in
  {
    Total_wire.sender = Net.Node_id.of_int sender;
    subrun;
    unsequenced;
    processed_upto;
    prev_decision;
  }

let encode_body payload body =
  let w = W.create () in
  (match body with
  | Total_wire.Data d -> write_data payload w d
  | Total_wire.Request r -> write_request w r
  | Total_wire.Decision_pdu d ->
      W.u8 w tag_decision;
      W.u24 w 0;
      write_decision w d
  | Total_wire.Recover_req { requester; from_seq; to_seq } ->
      W.u8 w tag_recover_req;
      W.u24 w (Net.Node_id.to_int requester);
      W.u32 w from_seq;
      W.u32 w to_seq;
      W.u32 w 0
  | Total_wire.Recover_reply { responder; messages } ->
      W.u8 w tag_recover_reply;
      W.u24 w (Net.Node_id.to_int responder);
      W.u32 w (List.length messages);
      List.iter
        (fun (seq, d) ->
          W.u32 w seq;
          write_data payload w d)
        messages);
  let raw = W.contents w in
  let expected = Total_wire.body_size body in
  if Bytes.length raw <> expected then
    invalid_arg
      (Printf.sprintf "Tw_codec: encoded %d bytes, size model says %d"
         (Bytes.length raw) expected);
  raw

let decode_body payload ~n raw =
  R.decode raw (fun r ->
      let tag = R.u8 r in
      if tag = tag_data then Total_wire.Data (read_data payload r)
      else if tag = tag_request then Total_wire.Request (read_request ~n r)
      else if tag = tag_decision then begin
        let _pad = R.u24 r in
        Total_wire.Decision_pdu (read_decision ~n r)
      end
      else if tag = tag_recover_req then begin
        let requester = R.u24 r in
        let from_seq = R.u32 r in
        let to_seq = R.u32 r in
        let _reserved = R.u32 r in
        Total_wire.Recover_req
          { requester = Net.Node_id.of_int requester; from_seq; to_seq }
      end
      else if tag = tag_recover_reply then begin
        let responder = R.u24 r in
        let count = R.u32 r in
        let rec read_messages k acc =
          if k = 0 then List.rev acc
          else
            let seq = R.u32 r in
            if R.u8 r <> tag_data then R.fail "recover-reply: expected data"
            else
              let d = read_data payload r in
              read_messages (k - 1) ((seq, d) :: acc)
        in
        let messages = read_messages count [] in
        Total_wire.Recover_reply
          { responder = Net.Node_id.of_int responder; messages }
      end
      else R.fail (Printf.sprintf "unknown urgc tag %d" tag))
