module W = Net.Bytebuf.Writer
module R = Net.Bytebuf.Reader

let tag_data = 1
let tag_heartbeat = 2
let tag_token = 3
let tag_stability = 4
let tag_suspect = 5
let tag_flush_req = 6
let tag_flush_unstable = 7
let tag_new_view = 8

let write_vclock w vt = Array.iter (W.u32 w) (Vclock.to_array vt)

let read_vclock ~n r = Vclock.of_array (R.array r n R.u32)

(* Data: tag u8 | sender u24 | view u32 | vt | payload-to-end. *)
let write_data_fields payload w (d : 'a Cb_wire.data) =
  W.u8 w tag_data;
  W.u24 w (Net.Node_id.to_int d.sender);
  W.u32 w d.view_id;
  write_vclock w d.vt;
  W.bytes w (payload.Net.Bytebuf.encode d.payload)

let read_data_fields payload ~n ~payload_len r =
  let sender = R.u24 r in
  let view_id = R.u32 r in
  let vt = read_vclock ~n r in
  let raw = R.bytes r payload_len in
  let value = R.of_result (payload.Net.Bytebuf.decode raw) in
  {
    Cb_wire.sender = Net.Node_id.of_int sender;
    view_id;
    vt;
    payload = value;
    payload_size = payload_len;
  }

(* Inner retransmitted messages: count u16, then (length u16 | data). *)
let write_msgs payload w msgs =
  W.u16 w (List.length msgs);
  List.iter
    (fun (d : 'a Cb_wire.data) ->
      W.u16 w (Cb_wire.data_size d);
      write_data_fields payload w d)
    msgs

let read_msgs payload ~n r =
  let count = R.u16 r in
  let rec loop k acc =
    if k = 0 then List.rev acc
    else
      let len = R.u16 r in
      if R.u8 r <> tag_data then R.fail "flush: expected a data message"
      else begin
        (* data_size = 8 + 4n + payload *)
        let payload_len = len - 8 - (4 * n) in
        if payload_len < 0 then R.fail "flush: message length too small"
        else
          let d = read_data_fields payload ~n ~payload_len r in
          loop (k - 1) (d :: acc)
      end
  in
  loop count []

(* Flush header: tag u8 | who u24 | view u32 | members bitmap, zero-padded to
   Cb_wire.flush_header n = max (4(n-1)) (8 + ceil(n/8)). *)
let flush_header_size n = max (4 * (n - 1)) (8 + ((n + 7) / 8))

let write_flush_header w ~tag ~who ~view_id ~members =
  let n = Array.length members in
  W.u8 w tag;
  W.u24 w who;
  W.u32 w view_id;
  W.bitmap w members;
  let written = 8 + ((n + 7) / 8) in
  let pad = flush_header_size n - written in
  if pad > 0 then W.bytes w (Bytes.make pad '\000')

let read_flush_header ~n r =
  (* tag already consumed *)
  let who = R.u24 r in
  let view_id = R.u32 r in
  let members = R.bitmap r n in
  let consumed = 8 + ((n + 7) / 8) in
  let pad = flush_header_size n - consumed in
  let _padding = R.bytes r (max 0 pad) in
  (who, view_id, members)

let encode_body payload body =
  let w = W.create () in
  (match body with
  | Cb_wire.Data d -> write_data_fields payload w d
  | Cb_wire.Heartbeat { vt } ->
      W.u8 w tag_heartbeat;
      W.u24 w 0;
      write_vclock w vt
  | Cb_wire.Token { initiator; acc } ->
      W.u8 w tag_token;
      W.u24 w (Net.Node_id.to_int initiator);
      write_vclock w acc
  | Cb_wire.Stability { vt } ->
      W.u8 w tag_stability;
      W.u24 w 0;
      write_vclock w vt
  | Cb_wire.Suspect { suspect; reporter } ->
      W.u8 w tag_suspect;
      W.u24 w (Net.Node_id.to_int reporter);
      W.u32 w (Net.Node_id.to_int suspect)
  | Cb_wire.Flush_req { view_id; members; coordinator } ->
      write_flush_header w ~tag:tag_flush_req
        ~who:(Net.Node_id.to_int coordinator)
        ~view_id ~members
  | Cb_wire.Flush_unstable { view_id; sender; msgs } ->
      W.u8 w tag_flush_unstable;
      W.u24 w (Net.Node_id.to_int sender);
      W.u32 w view_id;
      write_msgs payload w msgs
  | Cb_wire.New_view { view_id; members; retransmit } ->
      write_flush_header w ~tag:tag_new_view ~who:0 ~view_id ~members;
      write_msgs payload w retransmit);
  let raw = W.contents w in
  let expected = Cb_wire.body_size body in
  if Bytes.length raw <> expected then
    invalid_arg
      (Printf.sprintf
         "Cb_codec: encoded %d bytes but the size model says %d (payload \
          encoding does not match payload_size?)"
         (Bytes.length raw) expected);
  raw

let decode_body payload ~n raw =
  R.decode raw (fun r ->
      let tag = R.u8 r in
      if tag = tag_data then begin
        let payload_len = Bytes.length raw - 8 - (4 * n) in
        if payload_len < 0 then R.fail "data: too short"
        else Cb_wire.Data (read_data_fields payload ~n ~payload_len r)
      end
      else if tag = tag_heartbeat then begin
        let _pad = R.u24 r in
        Cb_wire.Heartbeat { vt = read_vclock ~n r }
      end
      else if tag = tag_token then begin
        let initiator = R.u24 r in
        let acc = read_vclock ~n r in
        Cb_wire.Token { initiator = Net.Node_id.of_int initiator; acc }
      end
      else if tag = tag_stability then begin
        let _pad = R.u24 r in
        Cb_wire.Stability { vt = read_vclock ~n r }
      end
      else if tag = tag_suspect then begin
        let reporter = R.u24 r in
        let suspect = R.u32 r in
        Cb_wire.Suspect
          {
            suspect = Net.Node_id.of_int suspect;
            reporter = Net.Node_id.of_int reporter;
          }
      end
      else if tag = tag_flush_req then begin
        let who, view_id, members = read_flush_header ~n r in
        Cb_wire.Flush_req
          { view_id; members; coordinator = Net.Node_id.of_int who }
      end
      else if tag = tag_flush_unstable then begin
        let sender = R.u24 r in
        let view_id = R.u32 r in
        let msgs = read_msgs payload ~n r in
        Cb_wire.Flush_unstable
          { view_id; sender = Net.Node_id.of_int sender; msgs }
      end
      else if tag = tag_new_view then begin
        let _who, view_id, members = read_flush_header ~n r in
        let retransmit = read_msgs payload ~n r in
        Cb_wire.New_view { view_id; members; retransmit }
      end
      else R.fail (Printf.sprintf "unknown cbcast tag %d" tag))
