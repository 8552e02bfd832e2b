(* Randomized n = 4 drive of [Urcgc.Member], pinned as a golden.

   Four members exchange PDUs through a list of in-flight bodies.  Each of
   90 operations draws from [Sim.Rng]: submit a payload at a random member,
   run one half-round (begin and mid subrun alternate) at every member,
   deliver a random in-flight body, or lose one.  Random delivery order and
   losses reach the waiting list, recovery from history, decisions,
   discards and departures.

   Each of the 40 seeds prints one line: the action counts by kind, the
   departures with their reasons, the PDU bytes emitted, and an MD5 over
   every member's action stream (PDUs as [Urcgc.Wire_codec] bytes) and over
   the seven observable accessors of every member after every operation.
   test/dune diffs the output against expect/member_stream.txt; after an
   intended behaviour change, `dune promote` refreshes it.

   Draw only from [Sim.Rng]: OCaml 5 changed Stdlib [Random]'s generator,
   and the golden must read the same on every supported compiler. *)

let n = 4
let seeds = 40
let operations = 90
let node = Net.Node_id.of_int

(* Int payloads, zero-padded to the default payload size: the codec
   refuses a payload whose encoding differs from its declared size. *)
let int_payload size =
  {
    Net.Bytebuf.encode =
      (fun value ->
        let raw = Bytes.make size '\000' in
        Bytes.set_int64_be raw 0 (Int64.of_int value);
        raw);
    decode =
      (fun raw ->
        if Bytes.length raw <> size then Error "int payload: wrong size"
        else Ok (Int64.to_int (Bytes.get_int64_be raw 0)));
  }

let kinds =
  [| "broadcast"; "send"; "processed"; "confirmed"; "discarded"; "queued"; "left" |]

let kind_index : int Urcgc.Member.action -> int = function
  | Broadcast _ -> 0
  | Send _ -> 1
  | Processed _ -> 2
  | Confirmed _ -> 3
  | Discarded _ -> 4
  | Queued _ -> 5
  | Left _ -> 6

let add_mid buf mid =
  Printf.bprintf buf " %d:%d"
    (Net.Node_id.to_int (Causal.Mid.origin mid))
    (Causal.Mid.seq mid)

(* Appends member [i]'s [action] to the stream; returns the bytes of the
   PDU it puts on the network (0 for a local action). *)
let add_action buf codec i (action : int Urcgc.Member.action) =
  Printf.bprintf buf "p%d %s" i kinds.(kind_index action);
  let pdu body =
    let raw = Urcgc.Wire_codec.encode_body codec body in
    Printf.bprintf buf " %d:" (Bytes.length raw);
    Buffer.add_bytes buf raw;
    Bytes.length raw
  in
  let bytes =
    match action with
    | Broadcast body -> pdu body
    | Send (dst, body) ->
        Printf.bprintf buf " to p%d" (Net.Node_id.to_int dst);
        pdu body
    | Processed msg ->
        ignore (pdu (Urcgc.Wire.Data msg));
        0
    | Confirmed mid ->
        add_mid buf mid;
        0
    | Discarded mids ->
        List.iter (add_mid buf) mids;
        0
    | Queued (mid, depth) ->
        add_mid buf mid;
        Printf.bprintf buf " depth %d" depth;
        0
    | Left reason ->
        Printf.bprintf buf " %s" (Urcgc.Member.reason_to_string reason);
        0
  in
  Buffer.add_char buf '\n';
  bytes

let reason_opt = function
  | None -> "-"
  | Some reason -> Urcgc.Member.reason_to_string reason

let add_state buf i m =
  Printf.bprintf buf
    "p%d active %b left %s history %d waiting %d processed %d backlog %d last"
    i (Urcgc.Member.active m)
    (reason_opt (Urcgc.Member.left_reason m))
    (Urcgc.Member.history_length m)
    (Urcgc.Member.waiting_length m)
    (Urcgc.Member.processed_count m)
    (Urcgc.Member.sap_backlog m);
  for origin = 0 to n - 1 do
    Printf.bprintf buf " %d" (Urcgc.Member.last_processed m (node origin))
  done;
  Buffer.add_char buf '\n'

let run seed =
  let config = Urcgc.Config.make ~n () in
  let codec = int_payload Urcgc.Config.default_payload_size in
  let rng = Sim.Rng.create ~seed:(Sim.Rng.derive ~seed:0xd0c5 seed) in
  let members = Array.init n (fun i -> Urcgc.Member.create config (node i)) in
  let stream = Buffer.create 65536 in
  let counts = Array.make (Array.length kinds) 0 in
  let pdu_bytes = ref 0 in
  let inflight = ref [] in
  let payload = ref 0 in
  let subrun = ref 0 in
  let mid_phase = ref false in
  let route i actions =
    List.iter
      (fun action ->
        let k = kind_index action in
        counts.(k) <- counts.(k) + 1;
        pdu_bytes := !pdu_bytes + add_action stream codec i action;
        match action with
        | Urcgc.Member.Broadcast body ->
            for j = 0 to n - 1 do
              if j <> i then inflight := !inflight @ [ (j, body) ]
            done
        | Send (dst, body) ->
            inflight := !inflight @ [ (Net.Node_id.to_int dst, body) ]
        | Processed _ | Confirmed _ | Discarded _ | Queued _ | Left _ -> ())
      actions
  in
  let remove_nth k l = List.filteri (fun j _ -> j <> k) l in
  for _ = 1 to operations do
    (match Sim.Rng.int rng 100 with
    | r when r < 15 ->
        let i = Sim.Rng.int rng n in
        incr payload;
        Urcgc.Member.submit members.(i) !payload
    | r when r < 40 ->
        Array.iteri
          (fun i m ->
            let hook =
              if !mid_phase then Urcgc.Member.mid_subrun m ~subrun:!subrun
              else Urcgc.Member.begin_subrun m ~subrun:!subrun
            in
            route i (Urcgc.Member.collect hook))
          members;
        if !mid_phase then incr subrun;
        mid_phase := not !mid_phase
    | r when r < 85 -> (
        match !inflight with
        | [] -> ()
        | l ->
            let k = Sim.Rng.int rng (List.length l) in
            let dst, body = List.nth l k in
            inflight := remove_nth k l;
            route dst
              (Urcgc.Member.collect (fun sink ->
                   Urcgc.Member.handle members.(dst) sink body)))
    | _ -> (
        match !inflight with
        | [] -> ()
        | l -> inflight := remove_nth (Sim.Rng.int rng (List.length l)) l));
    Array.iteri (add_state stream) members
  done;
  let departures =
    List.filter_map
      (fun m ->
        Option.map
          (fun reason ->
            Printf.sprintf "p%d %s"
              (Net.Node_id.to_int (Urcgc.Member.id m))
              (Urcgc.Member.reason_to_string reason))
          (Urcgc.Member.left_reason m))
      (Array.to_list members)
  in
  Printf.printf "seed %2d:" seed;
  Array.iteri (fun k kind -> Printf.printf " %s %d" kind counts.(k)) kinds;
  Printf.printf " departed [%s] pdu_bytes %d md5 %s\n"
    (String.concat "; " departures)
    !pdu_bytes
    (Digest.to_hex (Digest.string (Buffer.contents stream)))

let () =
  for seed = 0 to seeds - 1 do
    run seed
  done
