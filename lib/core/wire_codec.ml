module W = Net.Bytebuf.Writer
module R = Net.Bytebuf.Reader

type 'a payload = 'a Net.Bytebuf.codec = {
  encode : 'a -> bytes;
  decode : bytes -> ('a, string) result;
}

let string_payload = Net.Bytebuf.string_codec

(* Body tags. *)
let tag_data = 1
let tag_request = 2
let tag_decision = 3
let tag_recover_req = 4
let tag_recover_reply = 5

(* The sentinel for accumulator entries still at [max_int]. *)
let u32_sentinel = 0xFFFFFFFF

(* -- mids ---------------------------------------------------------------- *)

let write_mid w mid =
  W.u32 w (Net.Node_id.to_int (Causal.Mid.origin mid));
  W.u32 w (Causal.Mid.seq mid)

let read_mid r =
  let origin = R.u32 r in
  let seq = R.u32 r in
  if seq < 1 then R.fail "mid: sequence number must be >= 1"
  else Causal.Mid.make ~origin:(Net.Node_id.of_int origin) ~seq

(* For loops rather than [Array.iter (W.u32 w)]: the partial application
   would allocate a closure per vector. *)
let write_u32s w values =
  for i = 0 to Array.length values - 1 do
    W.u32 w values.(i)
  done

(* -- data messages --------------------------------------------------------

   Layout (= Causal_msg.header_size + 8 |deps| + payload):
     tag u8 | origin u24 | seq u32 | dep count u16 | payload length u16
     deps (8 bytes each) | payload bytes *)

let write_data payload w (msg : 'a Causal.Causal_msg.t) =
  let body = payload.encode msg.payload in
  if Bytes.length body <> msg.payload_size then
    invalid_arg
      (Printf.sprintf
         "Wire_codec: declared payload_size %d but the payload encodes to %d \
          bytes"
         msg.payload_size (Bytes.length body));
  W.u8 w tag_data;
  W.u24 w (Net.Node_id.to_int (Causal.Mid.origin msg.mid));
  W.u32 w (Causal.Mid.seq msg.mid);
  W.u16 w (Array.length msg.deps);
  W.u16 w (Bytes.length body);
  for i = 0 to Array.length msg.deps - 1 do
    write_mid w msg.deps.(i)
  done;
  W.bytes w body

(* The tag has been consumed by the dispatcher. *)
let read_data payload r =
  let origin = R.u24 r in
  let seq = R.u32 r in
  let dep_count = R.u16 r in
  let payload_len = R.u16 r in
  if seq < 1 then R.fail "data: sequence number must be >= 1";
  let deps = R.array r dep_count read_mid in
  let raw = R.bytes r payload_len in
  let value = R.of_result (payload.decode raw) in
  (* [of_sorted_deps] rather than [make]: the encoder always writes deps
     sorted, so an out-of-order frame is a malformed frame and decodes to
     an error rather than being silently re-sorted. *)
  match
    Causal.Causal_msg.of_sorted_deps
      ~mid:(Causal.Mid.make ~origin:(Net.Node_id.of_int origin) ~seq)
      ~deps ~payload_size:payload_len value
  with
  | msg -> msg
  | exception Invalid_argument reason -> R.fail reason

(* -- decisions ------------------------------------------------------------

   Layout (= Decision.encoded_size):
     subrun+1 u32 | coordinator u32 | flags u8
     stable, max_processed, most_updated, min_waiting, acc_stable,
       acc_min_waiting: n x u32 each (acc_stable uses the sentinel)
     attempts: n x u16 | alive bitmap | heard bitmap *)

let write_decision w (d : Decision.t) =
  W.u32 w (d.subrun + 1);
  W.u32 w (Net.Node_id.to_int d.coordinator);
  W.u8 w (if d.full_group then 1 else 0);
  write_u32s w d.stable;
  write_u32s w d.max_processed;
  for i = 0 to Array.length d.most_updated - 1 do
    W.u32 w (Net.Node_id.to_int d.most_updated.(i))
  done;
  write_u32s w d.min_waiting;
  for i = 0 to Array.length d.acc_stable - 1 do
    let v = d.acc_stable.(i) in
    W.u32 w (if v = max_int then u32_sentinel else v)
  done;
  write_u32s w d.acc_min_waiting;
  for i = 0 to Array.length d.attempts - 1 do
    W.u16 w d.attempts.(i)
  done;
  W.bitmap w d.alive;
  W.bitmap w d.heard

let encode_decision d =
  let w = W.create () in
  write_decision w d;
  W.contents w

let read_node r = Net.Node_id.of_int (R.u32 r)

let read_acc r =
  let v = R.u32 r in
  if v = u32_sentinel then max_int else v

(* Every field in its own [let]: a record's fields are evaluated in an
   unspecified order, and each read moves the cursor. *)
let read_decision ~n r =
  let subrun_plus1 = R.u32 r in
  let coordinator = R.u32 r in
  let flags = R.u8 r in
  let stable = R.array r n R.u32 in
  let max_processed = R.array r n R.u32 in
  let most_updated = R.array r n read_node in
  let min_waiting = R.array r n R.u32 in
  let acc_stable = R.array r n read_acc in
  let acc_min_waiting = R.array r n R.u32 in
  let attempts = R.array r n R.u16 in
  let alive = R.bitmap r n in
  let heard = R.bitmap r n in
  {
    Decision.subrun = subrun_plus1 - 1;
    coordinator = Net.Node_id.of_int coordinator;
    full_group = flags land 1 <> 0;
    stable;
    max_processed;
    most_updated;
    min_waiting;
    attempts;
    alive;
    heard;
    acc_stable;
    acc_min_waiting;
  }

let decode_decision ~n raw = R.decode raw (read_decision ~n)

(* -- requests -------------------------------------------------------------

   Layout (= Wire.request_size):
     tag u8 | sender u16 | reserved u8 | subrun u32
     last_processed: n x u32 | waiting seqs: n x u32 (0 = none)
     piggybacked decision *)

let write_request w (r : Wire.request) =
  W.u8 w tag_request;
  W.u16 w (Net.Node_id.to_int r.sender);
  W.u8 w 0;
  W.u32 w r.subrun;
  write_u32s w r.last_processed;
  for i = 0 to Array.length r.waiting - 1 do
    W.u32 w (match r.waiting.(i) with None -> 0 | Some mid -> Causal.Mid.seq mid)
  done;
  write_decision w r.prev_decision

let read_request ~n r =
  let sender = R.u16 r in
  let _reserved = R.u8 r in
  let subrun = R.u32 r in
  let last_processed = R.array r n R.u32 in
  let waiting = Array.make (max n 0) None in
  for origin = 0 to n - 1 do
    let seq = R.u32 r in
    if seq <> 0 then
      waiting.(origin) <-
        Some (Causal.Mid.make ~origin:(Net.Node_id.of_int origin) ~seq)
  done;
  let prev_decision = read_decision ~n r in
  {
    Wire.sender = Net.Node_id.of_int sender;
    subrun;
    last_processed;
    waiting;
    prev_decision;
  }

(* -- top level ------------------------------------------------------------ *)

let write_body payload w body =
  match body with
  | Wire.Data msg -> write_data payload w msg
  | Wire.Request r -> write_request w r
  | Wire.Decision_pdu d ->
      W.u8 w tag_decision;
      W.u24 w 0;
      write_decision w d
  | Wire.Recover_req { requester; origin; from_seq; to_seq } ->
      W.u8 w tag_recover_req;
      W.u24 w 0;
      W.u32 w (Net.Node_id.to_int requester);
      W.u32 w (Net.Node_id.to_int origin);
      W.u32 w from_seq;
      W.u32 w to_seq
  | Wire.Recover_reply { responder; messages } ->
      W.u8 w tag_recover_reply;
      (* Message count rides in the pad field.  Relying on the buffer end to
         delimit the list let a reply truncated at a message boundary decode
         Ok with fewer messages; an explicit count makes that an error. *)
      W.u24 w (List.length messages);
      W.u32 w (Net.Node_id.to_int responder);
      List.iter (write_data payload w) messages

let encode_body_into w payload body =
  W.clear w;
  write_body payload w body;
  W.contents w

let encode_body payload body =
  let w = W.create () in
  write_body payload w body;
  W.contents w

let decode_body payload ~n raw =
  R.decode raw (fun r ->
      let tag = R.u8 r in
      if tag = tag_data then Wire.Data (read_data payload r)
      else if tag = tag_request then Wire.Request (read_request ~n r)
      else if tag = tag_decision then begin
        let _pad = R.u24 r in
        Wire.Decision_pdu (read_decision ~n r)
      end
      else if tag = tag_recover_req then begin
        let _pad = R.u24 r in
        let requester = R.u32 r in
        let origin = R.u32 r in
        let from_seq = R.u32 r in
        let to_seq = R.u32 r in
        Wire.Recover_req
          {
            requester = Net.Node_id.of_int requester;
            origin = Net.Node_id.of_int origin;
            from_seq;
            to_seq;
          }
      end
      else if tag = tag_recover_reply then begin
        let expected = R.u24 r in
        let responder = R.u32 r in
        let rec read_messages k acc =
          if k = 0 then List.rev acc
          else if R.remaining r = 0 then
            R.fail
              (Printf.sprintf
                 "recover-reply: truncated; %d of %d messages missing" k
                 expected)
          else if R.u8 r <> tag_data then
            R.fail "recover-reply: expected a data message"
          else
            let msg = read_data payload r in
            read_messages (k - 1) (msg :: acc)
        in
        let messages = read_messages expected [] in
        Wire.Recover_reply
          { responder = Net.Node_id.of_int responder; messages }
      end
      else R.fail (Printf.sprintf "unknown body tag %d" tag))
