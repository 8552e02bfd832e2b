module W = Net.Bytebuf.Writer
module R = Net.Bytebuf.Reader

let tag_msg = 1
let tag_retrans_req = 2
let tag_retrans_reply = 3
let tag_keepalive = 4
let tag_mask_out = 5
let tag_mask_ack = 6
let tag_mask_done = 7

(* mid: sender u32 | seq u32 — 8 bytes, as Wire's size model assumes. *)
let write_mid w (mid : Context_graph.mid) =
  W.u32 w (Net.Node_id.to_int mid.sender);
  W.u32 w mid.seq

let read_mid r =
  let sender = R.u32 r in
  let seq = R.u32 r in
  if seq < 1 then R.fail "psync mid: seq must be >= 1"
  else { Context_graph.sender = Net.Node_id.of_int sender; seq }

(* node: tag u8 | sender u24 | seq u32 | pred count u16 | payload len u16
   | preds (8 each) | payload.  Total = 8 + 8 |preds| + 4 + payload
   = Wire.node_size. *)
let write_node payload w (node : 'a Context_graph.node) =
  let body = payload.Net.Bytebuf.encode node.payload in
  if Bytes.length body <> node.payload_size then
    invalid_arg
      (Printf.sprintf
         "Ps_codec: declared payload_size %d but the payload encodes to %d"
         node.payload_size (Bytes.length body));
  W.u8 w tag_msg;
  W.u24 w (Net.Node_id.to_int node.mid.sender);
  W.u32 w node.mid.seq;
  W.u16 w (List.length node.preds);
  W.u16 w (Bytes.length body);
  List.iter (write_mid w) node.preds;
  W.bytes w body

let read_node payload r =
  let sender = R.u24 r in
  let seq = R.u32 r in
  let pred_count = R.u16 r in
  let payload_len = R.u16 r in
  if seq < 1 then R.fail "psync msg: seq must be >= 1";
  let preds = Array.to_list (R.array r pred_count read_mid) in
  let raw = R.bytes r payload_len in
  let value = R.of_result (payload.Net.Bytebuf.decode raw) in
  {
    Context_graph.mid = { sender = Net.Node_id.of_int sender; seq };
    preds;
    payload = value;
    payload_size = payload_len;
  }

let encode_body payload body =
  let w = W.create () in
  (match body with
  | Wire.Msg node -> write_node payload w node
  | Wire.Retrans_req { requester; wanted } ->
      W.u8 w tag_retrans_req;
      W.u24 w (Net.Node_id.to_int requester);
      write_mid w wanted
  | Wire.Retrans_reply node ->
      W.u8 w tag_retrans_reply;
      W.u24 w 0;
      write_node payload w node
  | Wire.Keepalive ->
      W.u8 w tag_keepalive;
      W.u24 w 0;
      W.u32 w 0
  | Wire.Mask_out { target; initiator } ->
      W.u8 w tag_mask_out;
      W.u24 w (Net.Node_id.to_int initiator);
      W.u32 w (Net.Node_id.to_int target);
      W.u32 w 0
  | Wire.Mask_ack { target } ->
      W.u8 w tag_mask_ack;
      W.u24 w 0;
      W.u32 w (Net.Node_id.to_int target)
  | Wire.Mask_done { target } ->
      W.u8 w tag_mask_done;
      W.u24 w 0;
      W.u32 w (Net.Node_id.to_int target));
  let raw = W.contents w in
  let expected = Wire.body_size body in
  if Bytes.length raw <> expected then
    invalid_arg
      (Printf.sprintf "Ps_codec: encoded %d bytes, size model says %d"
         (Bytes.length raw) expected);
  raw

let decode_body payload raw =
  R.decode raw (fun r ->
      let tag = R.u8 r in
      if tag = tag_msg then Wire.Msg (read_node payload r)
      else if tag = tag_retrans_req then begin
        let requester = R.u24 r in
        let wanted = read_mid r in
        Wire.Retrans_req { requester = Net.Node_id.of_int requester; wanted }
      end
      else if tag = tag_retrans_reply then begin
        let _pad = R.u24 r in
        if R.u8 r <> tag_msg then R.fail "retrans-reply: expected a message"
        else Wire.Retrans_reply (read_node payload r)
      end
      else if tag = tag_keepalive then begin
        let _pad = R.u24 r in
        let _reserved = R.u32 r in
        Wire.Keepalive
      end
      else if tag = tag_mask_out then begin
        let initiator = R.u24 r in
        let target = R.u32 r in
        let _reserved = R.u32 r in
        Wire.Mask_out
          {
            target = Net.Node_id.of_int target;
            initiator = Net.Node_id.of_int initiator;
          }
      end
      else if tag = tag_mask_ack then begin
        let _pad = R.u24 r in
        Wire.Mask_ack { target = Net.Node_id.of_int (R.u32 r) }
      end
      else if tag = tag_mask_done then begin
        let _pad = R.u24 r in
        Wire.Mask_done { target = Net.Node_id.of_int (R.u32 r) }
      end
      else R.fail (Printf.sprintf "unknown psync tag %d" tag))
