(* Offline trace analyzer.

   Consumes the typed protocol trace (in memory, or parsed back from the
   JSONL export of docs/TRACE.md) and produces the three artifacts the
   evaluation and CI lean on:

   - per-message lifecycle spans: broadcast -> recv/wait -> deliver ->
     confirm -> group-wide stability, with latency, waiting-list residency,
     retransmission/recovery counts, coordinator decision load, and drop
     attribution;
   - a trace-level invariant oracle re-checking causal order, at-most-once
     delivery, uniform atomicity among survivors, and zombie processing
     purely from events — independently of the live Workload.Checker;
   - deterministic exports: a canonical single-line JSON report and a
     Chrome trace-event (Perfetto) timeline.

   Analysis happens below the protocol libraries, so nodes are integer
   indices and messages are (origin, seq) pairs, exactly as traced. *)

(* -- distributions -------------------------------------------------------- *)

let rec fill_ticks a i sum = function
  | [] -> sum
  | tick :: rest ->
      a.(i) <- float_of_int tick;
      fill_ticks a (i + 1) (sum + tick) rest

(* Nearest-rank, as the metrics histograms; an int sum is exact in any
   order. *)
let summary_of_ticks = function
  | [] -> Stats.Summary.empty
  | ticks ->
      let count = List.length ticks in
      let samples = Array.make count 0.0 in
      let sum = fill_ticks samples 0 0 ticks in
      Stats.Summary.nearest_rank samples count ~sum:(float_of_int sum)

let scale_summary k (d : Stats.Summary.t) =
  if d.count = 0 then d
  else
    {
      d with
      mean = d.mean *. k;
      stddev = d.stddev *. k;
      min = d.min *. k;
      max = d.max *. k;
      p50 = d.p50 *. k;
      p95 = d.p95 *. k;
      p99 = d.p99 *. k;
    }

(* -- result types --------------------------------------------------------- *)

type coverage = {
  complete : bool;
  first_tick : int;
  last_tick : int;
  events : int;
  pre_window_mids : int;
}

type span = {
  mid : Trace.mid;
  broadcast_tick : int;
  deps : int;
  bytes : int;
  dsts : int;
  recvs : int;
  duplicate_recvs : int;
  retransmissions : int;
  wait_adds : int;
  waiting_ticks : int;
  deliveries : int;
  confirmed : bool;
  first_delivery_tick : int option;
  last_delivery_tick : int option;
  stable_tick : int option;
  recover_requests : int;
  discards : int;
}

type verdict = {
  causal_ok : bool;
  at_most_once_ok : bool;
  atomicity_ok : bool;
  zombie_ok : bool;
  partition_ok : bool;
  skipped : string list;
  violations : string list;
}

let verdict_ok v =
  v.causal_ok && v.at_most_once_ok && v.atomicity_ok && v.zombie_ok
  && v.partition_ok

type t = {
  nodes : int;
  coverage : coverage;
  spans : span list;
  latency_ticks : Stats.Summary.t;
  stability_ticks : Stats.Summary.t;
  waiting : Stats.Summary.t;
  rotations : (int * int) list;
  decisions : (int * int) list;
  recover_requests : int;
  recover_replies : int;
  recovered_messages : int;
  drops_by_stage : (Trace.stage * int) list;
  drops_by_class : (Trace.Traffic_class.t * int) list;
  crashed : int list;
  left : int list;
  verdict : verdict;
  metrics_json : string option;
}

(* -- analysis ------------------------------------------------------------- *)

module Mid_key = struct
  type t = int * int

  let compare = compare
end

module Mid_set = Set.Make (Mid_key)

(* Mutable per-message accumulator; frozen into a [span] at the end. *)
type acc = {
  a_mid : Trace.mid;
  a_broadcast_tick : int;
  (* The origin's delivery vector at the broadcast instant (last delivered
     seq per origin), and how many entries were nonzero.  When the traced
     [deps] count equals the nonzero count, the message was frontier-labelled
     and the vector IS its causal past; otherwise the deps are explicit and
     narrower, and the oracle falls back to origin-chain causality only. *)
  a_vector : int array;
  a_frontier : bool;
  a_deps : int;
  a_bytes : int;
  a_dsts : int;
  mutable a_recvs : int;
  mutable a_duplicate_recvs : int;
  mutable a_retransmissions : int;
  mutable a_wait_adds : int;
  mutable a_waiting_ticks : int;
  mutable a_deliveries : (int * int) list;  (* (node, tick), newest first *)
  mutable a_confirmed : bool;
  mutable a_discards : int;
}

let max_node_index records =
  let top = ref (-1) in
  let see i = if i > !top then top := i in
  let see_pdu = function
    | Trace.Data { origin; _ } -> see origin
    | Trace.Request { sender; _ } -> see sender
    | Trace.Decision { coordinator; _ } -> see coordinator
    | Trace.Recover_req { requester; origin; _ } ->
        see requester;
        see origin
    | Trace.Recover_reply { responder; _ } -> see responder
  in
  List.iter
    (fun { Trace.event; _ } ->
      match event with
      | Trace.Send { src; dst; pdu } ->
          see src;
          see dst;
          see_pdu pdu
      | Trace.Broadcast { src; pdu; _ } ->
          see src;
          see_pdu pdu
      | Trace.Receive { node; pdu } ->
          see node;
          see_pdu pdu
      | Trace.Deliver { node; mid } | Trace.Confirm { node; mid } ->
          see node;
          see mid.Trace.origin
      | Trace.Wait_add { node; mid; _ } ->
          see node;
          see mid.Trace.origin
      | Trace.Wait_discard { node; mids } ->
          see node;
          List.iter (fun m -> see m.Trace.origin) mids
      | Trace.Rotate { coordinator; _ } -> see coordinator
      | Trace.Left { node; _ } | Trace.Crash { node } -> see node
      | Trace.Drop { src; dst; _ } ->
          see src;
          see dst
      | Trace.Note _ -> ())
    records;
  !top + 1

(* A complete urcgc trace opens with the subrun-0 rotation at tick 0 (the
   first simulated round emits it before anything else).  Anything else is a
   bounded-ring suffix: the analyzer then reports a coverage window and
   suppresses the checks that a missing prefix would false-flag. *)
let looks_complete records =
  match records with
  | [] -> true
  | { Trace.time; event } :: _ -> (
      Ticks.to_int time = 0
      && match event with Trace.Rotate { subrun = 0; _ } -> true | _ -> false)

let analyze ?n ?(complete : bool option) ?metrics_json records =
  let n =
    match n with Some n -> Stdlib.max n (max_node_index records) | None -> max_node_index records
  in
  let complete =
    match complete with Some c -> c | None -> looks_complete records
  in
  let events = List.length records in
  let first_tick, last_tick =
    match records with
    | [] -> (0, 0)
    | first :: _ ->
        let last = List.fold_left (fun _ r -> r) first records in
        (Ticks.to_int first.Trace.time, Ticks.to_int last.Trace.time)
  in
  (* Per-node state. *)
  let vectors = Array.init n (fun _ -> Array.make (Stdlib.max n 1) 0) in
  let seen_chain = Hashtbl.create 64 in  (* (node, origin) -> last seq seen *)
  let delivered : Mid_set.t array = Array.make (Stdlib.max n 1) Mid_set.empty in
  let pending_waits = Hashtbl.create 64 in  (* (node, mid key) -> tick *)
  let accs : (Mid_key.t, acc) Hashtbl.t = Hashtbl.create 64 in
  let pre_window = Hashtbl.create 16 in
  let crashed = Hashtbl.create 8 in
  let left = Hashtbl.create 8 in
  (* Discards per discarding node: only the discards of nodes that turn out
     to be survivors witness group agreement (a departed member may have
     purged orphans under a solo decision nobody else holds). *)
  let discarded_by : (int, Mid_set.t) Hashtbl.t = Hashtbl.create 8 in
  let rotations = Array.make (Stdlib.max n 1) 0 in
  let decisions = Array.make (Stdlib.max n 1) 0 in
  let recover_reqs = ref [] in  (* (origin, from, to) *)
  let recover_req_count = ref 0 in
  let recover_replies = ref 0 in
  let recovered_messages = ref 0 in
  let drops_stage = Hashtbl.create 8 in
  let drops_class = Hashtbl.create 8 in
  let violations = ref [] in
  let causal_ok = ref true in
  let amo_ok = ref true in
  let zombie_ok = ref true in
  let partition_ok = ref true in
  let violation flag fmt =
    Printf.ksprintf
      (fun msg ->
        flag := false;
        violations := msg :: !violations)
      fmt
  in
  let key (m : Trace.mid) = (m.Trace.origin, m.Trace.seq) in
  let note_pre_window k =
    if not (Hashtbl.mem pre_window k) then Hashtbl.replace pre_window k () in
  let on_data_broadcast ~tick ~src (origin, seq) ~deps ~bytes ~dsts =
    let k = (origin, seq) in
    match Hashtbl.find_opt accs k with
    | Some acc ->
        (* Seen again: a relay or recovery rebroadcast, not a new lifecycle. *)
        acc.a_retransmissions <- acc.a_retransmissions + 1
    | None ->
        if src <> origin then
          (* A relayed copy of a message we never saw leave its origin: the
             lifecycle start is outside the window. *)
          note_pre_window k
        else begin
          let vector = Array.copy vectors.(src) in
          let nonzero = Array.fold_left (fun acc v -> if v > 0 then acc + 1 else acc) 0 vector in
          Hashtbl.replace accs k
            {
              a_mid = { Trace.origin; seq };
              a_broadcast_tick = tick;
              a_vector = vector;
              a_frontier = complete && nonzero = deps;
              a_deps = deps;
              a_bytes = bytes;
              a_dsts = dsts;
              a_recvs = 0;
              a_duplicate_recvs = 0;
              a_retransmissions = 0;
              a_wait_adds = 0;
              a_waiting_ticks = 0;
              a_deliveries = [];
              a_confirmed = false;
              a_discards = 0;
            }
        end
  in
  let seen_recv = Hashtbl.create 64 in  (* (node, mid key) -> unit *)
  let waiting_samples = ref [] in
  let deliver ~tick node (mid : Trace.mid) =
    let k = key mid in
    let origin = mid.Trace.origin in
    let seq = mid.Trace.seq in
    if node < 0 || node >= n || origin < 0 || origin >= n then
      violation causal_ok "node or origin out of range in deliver of (%d,%d)"
        origin seq
    else begin
      (* A departed process must not keep processing: same-tick events
         belong to the action batch that contained the departure, anything
         strictly later is zombie processing. *)
      (match Hashtbl.find_opt left node with
      | Some left_tick when tick > left_tick ->
          violation zombie_ok
            "zombie: node %d processed (%d,%d) at tick %d after leaving at \
             tick %d"
            node origin seq tick left_tick
      | _ -> ());
      (* At-most-once. *)
      if Mid_set.mem k delivered.(node) then
        violation amo_ok "node %d processed (%d,%d) more than once" node origin
          seq
      else begin
        delivered.(node) <- Mid_set.add k delivered.(node);
        (* Origin-chain contiguity (the per-origin FIFO half of causality). *)
        (match Hashtbl.find_opt seen_chain (node, origin) with
        | Some last ->
            if seq <> last + 1 then
              violation causal_ok
                "node %d processed (%d,%d) out of order (expected seq %d)"
                node origin seq (last + 1);
            Hashtbl.replace seen_chain (node, origin) (Stdlib.max last seq)
        | None ->
            if complete && seq <> 1 then
              violation causal_ok
                "node %d processed (%d,%d) before the start of its chain" node
                origin seq;
            Hashtbl.replace seen_chain (node, origin) seq);
        (* Cross-origin causal past, when the label was the full frontier. *)
        (match Hashtbl.find_opt accs k with
        | None -> note_pre_window k
        | Some acc ->
            if acc.a_frontier then
              Array.iteri
                (fun j need ->
                  if j <> origin && need > vectors.(node).(j) then
                    violation causal_ok
                      "node %d processed (%d,%d) before its causal \
                       predecessor (%d,%d)"
                      node origin seq j need)
                acc.a_vector;
            acc.a_deliveries <- (node, tick) :: acc.a_deliveries);
        if seq > vectors.(node).(origin) then vectors.(node).(origin) <- seq;
        (* Waiting-list residency ends at processing. *)
        match Hashtbl.find_opt pending_waits (node, k) with
        | None -> ()
        | Some wtick ->
            Hashtbl.remove pending_waits (node, k);
            let residency = tick - wtick in
            waiting_samples := residency :: !waiting_samples;
            (match Hashtbl.find_opt accs k with
            | Some acc -> acc.a_waiting_ticks <- acc.a_waiting_ticks + residency
            | None -> ())
      end
    end
  in
  List.iter
    (fun { Trace.time; event } ->
      let tick = Ticks.to_int time in
      match event with
      | Trace.Broadcast { src; dsts; pdu = Trace.Data { origin; seq; deps; bytes } } ->
          on_data_broadcast ~tick ~src (origin, seq) ~deps ~bytes ~dsts
      | Trace.Broadcast { src = _; pdu = Trace.Decision { coordinator; _ }; _ }
      | Trace.Send { src = _; pdu = Trace.Decision { coordinator; _ }; _ } ->
          if coordinator >= 0 && coordinator < n then
            decisions.(coordinator) <- decisions.(coordinator) + 1
      | Trace.Send { pdu = Trace.Data { origin; seq; _ }; _ } -> (
          match Hashtbl.find_opt accs (origin, seq) with
          | Some acc -> acc.a_retransmissions <- acc.a_retransmissions + 1
          | None -> note_pre_window (origin, seq))
      | Trace.Broadcast { pdu = Trace.Recover_req { origin; from_seq; to_seq; _ }; _ }
      | Trace.Send { pdu = Trace.Recover_req { origin; from_seq; to_seq; _ }; _ } ->
          incr recover_req_count;
          recover_reqs := (origin, from_seq, to_seq) :: !recover_reqs
      | Trace.Broadcast { pdu = Trace.Recover_reply { count; _ }; _ }
      | Trace.Send { pdu = Trace.Recover_reply { count; _ }; _ } ->
          incr recover_replies;
          recovered_messages := !recovered_messages + count
      | Trace.Broadcast _ | Trace.Send _ -> ()
      | Trace.Receive { node; pdu = Trace.Data { origin; seq; _ } } -> (
          let k = (origin, seq) in
          let dup = Hashtbl.mem seen_recv (node, k) in
          if not dup then Hashtbl.replace seen_recv (node, k) ();
          match Hashtbl.find_opt accs k with
          | Some acc ->
              acc.a_recvs <- acc.a_recvs + 1;
              if dup then acc.a_duplicate_recvs <- acc.a_duplicate_recvs + 1
          | None -> note_pre_window k)
      | Trace.Receive _ -> ()
      | Trace.Deliver { node; mid } -> deliver ~tick node mid
      | Trace.Confirm { node = _; mid } -> (
          match Hashtbl.find_opt accs (key mid) with
          | Some acc -> acc.a_confirmed <- true
          | None -> note_pre_window (key mid))
      | Trace.Wait_add { node; mid; depth = _ } -> (
          let k = key mid in
          if not (Hashtbl.mem pending_waits (node, k)) then
            Hashtbl.replace pending_waits (node, k) tick;
          match Hashtbl.find_opt accs k with
          | Some acc -> acc.a_wait_adds <- acc.a_wait_adds + 1
          | None -> note_pre_window k)
      | Trace.Wait_discard { node; mids } ->
          List.iter
            (fun mid ->
              let k = key mid in
              Hashtbl.replace discarded_by node
                (Mid_set.add k
                   (Option.value ~default:Mid_set.empty
                      (Hashtbl.find_opt discarded_by node)));
              Hashtbl.remove pending_waits (node, k);
              match Hashtbl.find_opt accs k with
              | Some acc -> acc.a_discards <- acc.a_discards + 1
              | None -> note_pre_window k)
            mids
      | Trace.Rotate { coordinator; _ } ->
          if coordinator >= 0 && coordinator < n then
            rotations.(coordinator) <- rotations.(coordinator) + 1
      | Trace.Left { node; reason } ->
          if not (Hashtbl.mem left node) then Hashtbl.replace left node tick;
          (* The reason string is the wire-stable rendering of
             [Urcgc.Member.reason_to_string] (docs/TRACE.md).  A solo-view
             departure means the group lost its primary partition — never
             legitimate within the fault budget. *)
          if reason = "partitioned (solo view)" then
            violation partition_ok
              "liveness: node %d left with a solo view at tick %d — the \
               group lost its primary partition"
              node tick
      | Trace.Crash { node } -> Hashtbl.replace crashed node ()
      | Trace.Drop { stage; kind; _ } ->
          let bump table k =
            Hashtbl.replace table k
              (1 + Option.value ~default:0 (Hashtbl.find_opt table k))
          in
          bump drops_stage stage;
          bump drops_class kind
      | Trace.Note _ -> ())
    records;
  (* Survivors: every index that neither crashed nor left. *)
  let survivors =
    List.filter
      (fun i -> not (Hashtbl.mem crashed i || Hashtbl.mem left i))
      (List.init n Fun.id)
  in
  let skipped = ref [] in
  (* Uniform atomicity among survivors (complete traces only: a missing
     prefix hides deliveries and would false-flag every survivor). *)
  let atomicity_ok = ref true in
  if not complete then
    skipped :=
      "atomicity: trace window is truncated, per-node delivery sets are \
       incomplete"
      :: !skipped
  else begin
    match survivors with
    | [] -> ()
    | first :: rest ->
        let reference = delivered.(first) in
        List.iter
          (fun node ->
            if not (Mid_set.equal delivered.(node) reference) then begin
              let only_ref = Mid_set.diff reference delivered.(node) in
              let only_node = Mid_set.diff delivered.(node) reference in
              violation atomicity_ok
                "atomicity: nodes %d and %d disagree (%d messages only at \
                 %d, %d only at %d)"
                first node
                (Mid_set.cardinal only_ref)
                first
                (Mid_set.cardinal only_node)
                node
            end)
          rest
  end;
  (* Zombie processing: survivors must not have processed a mid that a
     survivor discarded by group agreement. *)
  let discarded =
    List.fold_left
      (fun acc node ->
        match Hashtbl.find_opt discarded_by node with
        | Some set -> Mid_set.union acc set
        | None -> acc)
      Mid_set.empty survivors
  in
  List.iter
    (fun node ->
      Mid_set.iter
        (fun (origin, seq) ->
          if Mid_set.mem (origin, seq) delivered.(node) then
            violation zombie_ok
              "zombie: surviving node %d processed discarded message (%d,%d)"
              node origin seq)
        discarded)
    survivors;
  if not complete then
    skipped :=
      "causal: cross-origin dependency checks limited to the trace window"
      :: !skipped;
  (* Freeze spans. *)
  let spans =
    Hashtbl.fold (fun _ acc l -> acc :: l) accs []
    |> List.map (fun a ->
           let deliveries = List.rev a.a_deliveries in
           let ticks = List.map snd deliveries in
           let first_delivery_tick =
             match ticks with [] -> None | t :: rest -> Some (List.fold_left Stdlib.min t rest)
           in
           let last_delivery_tick =
             match ticks with [] -> None | t :: rest -> Some (List.fold_left Stdlib.max t rest)
           in
           let stable_tick =
             let delivered_at node =
               List.filter_map
                 (fun (d, t) -> if d = node then Some t else None)
                 deliveries
             in
             if survivors = [] then None
             else
               let rec stable acc = function
                 | [] -> Some acc
                 | node :: rest -> (
                     match delivered_at node with
                     | [] -> None
                     | t :: more ->
                         stable
                           (Stdlib.max acc (List.fold_left Stdlib.max t more))
                           rest)
               in
               stable 0 survivors
           in
           let recover_requests =
             List.length
               (List.filter
                  (fun (o, from_seq, to_seq) ->
                    o = a.a_mid.Trace.origin
                    && from_seq <= a.a_mid.Trace.seq
                    && a.a_mid.Trace.seq <= to_seq)
                  !recover_reqs)
           in
           {
             mid = a.a_mid;
             broadcast_tick = a.a_broadcast_tick;
             deps = a.a_deps;
             bytes = a.a_bytes;
             dsts = a.a_dsts;
             recvs = a.a_recvs;
             duplicate_recvs = a.a_duplicate_recvs;
             retransmissions = a.a_retransmissions;
             wait_adds = a.a_wait_adds;
             waiting_ticks = a.a_waiting_ticks;
             deliveries = List.length deliveries;
             confirmed = a.a_confirmed;
             first_delivery_tick;
             last_delivery_tick;
             stable_tick;
             recover_requests;
             discards = a.a_discards;
           })
    |> List.sort (fun a b ->
           compare (a.mid.Trace.origin, a.mid.Trace.seq)
             (b.mid.Trace.origin, b.mid.Trace.seq))
  in
  (* Aggregate distributions. *)
  let latency_samples = ref [] in
  let stability_samples = ref [] in
  Hashtbl.iter
    (fun _ a ->
      List.iter
        (fun (node, tick) ->
          if node <> a.a_mid.Trace.origin then
            latency_samples := (tick - a.a_broadcast_tick) :: !latency_samples)
        a.a_deliveries)
    accs;
  List.iter
    (fun span ->
      match span.stable_tick with
      | Some t -> stability_samples := (t - span.broadcast_tick) :: !stability_samples
      | None -> ())
    spans;
  let assoc_of_array arr =
    Array.to_list arr
    |> List.mapi (fun i v -> (i, v))
    |> List.filter (fun (_, v) -> v > 0)
  in
  {
    nodes = n;
    coverage =
      {
        complete;
        first_tick;
        last_tick;
        events;
        pre_window_mids = Hashtbl.length pre_window;
      };
    spans;
    latency_ticks = summary_of_ticks !latency_samples;
    stability_ticks = summary_of_ticks !stability_samples;
    waiting = summary_of_ticks !waiting_samples;
    rotations = assoc_of_array rotations;
    decisions = assoc_of_array decisions;
    recover_requests = !recover_req_count;
    recover_replies = !recover_replies;
    recovered_messages = !recovered_messages;
    drops_by_stage =
      List.filter_map
        (fun stage ->
          Option.map (fun c -> (stage, c)) (Hashtbl.find_opt drops_stage stage))
        [ Trace.On_send; Trace.On_link; Trace.On_recv; Trace.On_filter ];
    drops_by_class =
      List.filter_map
        (fun cls ->
          Option.map (fun c -> (cls, c)) (Hashtbl.find_opt drops_class cls))
        Trace.Traffic_class.all;
    crashed = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) crashed []);
    left = List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) left []);
    verdict =
      {
        causal_ok = !causal_ok;
        at_most_once_ok = !amo_ok;
        atomicity_ok = !atomicity_ok;
        zombie_ok = !zombie_ok;
        partition_ok = !partition_ok;
        skipped = List.rev !skipped;
        violations = List.rev !violations;
      };
    metrics_json;
  }

(* -- JSONL parsing --------------------------------------------------------

   Strict by design: the field layout of docs/TRACE.md is enforced exactly
   (names, order, and types), so schema drift between the exporter and this
   reader fails loudly instead of silently skewing statistics. *)

exception Parse of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse msg)) fmt

let as_int name = function
  | Json.Int n -> n
  | _ -> fail "field %S must be an integer" name

let as_nat name v =
  let n = as_int name v in
  if n < 0 then fail "field %S must be non-negative" name else n

let as_string name = function
  | Json.Str s -> s
  | _ -> fail "field %S must be a string" name

let as_bool name = function
  | Json.Bool b -> b
  | _ -> fail "field %S must be a boolean" name

let check_layout what expected fields =
  let got = List.map fst fields in
  if got <> expected then
    fail "%s: expected fields [%s], found [%s]" what
      (String.concat "," expected)
      (String.concat "," got)

let pdu_of_json json =
  match json with
  | Json.Obj fields -> (
      let f name = List.assoc name fields in
      match Json.member "kind" json with
      | Some (Json.Str "data") ->
          check_layout "data pdu" [ "kind"; "origin"; "seq"; "deps"; "bytes" ]
            fields;
          Trace.Data
            {
              origin = as_nat "origin" (f "origin");
              seq = as_nat "seq" (f "seq");
              deps = as_nat "deps" (f "deps");
              bytes = as_nat "bytes" (f "bytes");
            }
      | Some (Json.Str "request") ->
          check_layout "request pdu" [ "kind"; "sender"; "subrun" ] fields;
          Trace.Request
            {
              sender = as_nat "sender" (f "sender");
              subrun = as_nat "subrun" (f "subrun");
            }
      | Some (Json.Str "decision") ->
          check_layout "decision pdu"
            [ "kind"; "subrun"; "coordinator"; "full_group" ]
            fields;
          Trace.Decision
            {
              subrun = as_nat "subrun" (f "subrun");
              coordinator = as_nat "coordinator" (f "coordinator");
              full_group = as_bool "full_group" (f "full_group");
            }
      | Some (Json.Str "recover_req") ->
          check_layout "recover_req pdu"
            [ "kind"; "requester"; "origin"; "from"; "to" ]
            fields;
          Trace.Recover_req
            {
              requester = as_nat "requester" (f "requester");
              origin = as_nat "origin" (f "origin");
              from_seq = as_nat "from" (f "from");
              to_seq = as_nat "to" (f "to");
            }
      | Some (Json.Str "recover_reply") ->
          check_layout "recover_reply pdu" [ "kind"; "responder"; "count" ]
            fields;
          Trace.Recover_reply
            {
              responder = as_nat "responder" (f "responder");
              count = as_nat "count" (f "count");
            }
      | Some (Json.Str other) -> fail "unknown pdu kind %S" other
      | Some _ -> fail "field \"kind\" must be a string"
      | None -> fail "pdu is missing the \"kind\" field")
  | _ -> fail "pdu must be an object"

let mid_of_json = function
  | Json.List [ Json.Int origin; Json.Int seq ] when origin >= 0 && seq >= 0 ->
      { Trace.origin; seq }
  | _ -> fail "mids entries must be [origin,seq] integer pairs"

let record_of_json json =
  match json with
  | Json.Obj ((("t", t) :: ("ev", Json.Str ev) :: _) as fields) ->
      let time = Ticks.of_int (as_nat "t" t) in
      let f name = List.assoc name fields in
      let layout extra = check_layout ev ("t" :: "ev" :: extra) fields in
      let event =
        match ev with
        | "send" ->
            layout [ "src"; "dst"; "pdu" ];
            Trace.Send
              {
                src = as_nat "src" (f "src");
                dst = as_nat "dst" (f "dst");
                pdu = pdu_of_json (f "pdu");
              }
        | "broadcast" ->
            layout [ "src"; "dsts"; "pdu" ];
            Trace.Broadcast
              {
                src = as_nat "src" (f "src");
                dsts = as_nat "dsts" (f "dsts");
                pdu = pdu_of_json (f "pdu");
              }
        | "recv" ->
            layout [ "node"; "pdu" ];
            Trace.Receive
              { node = as_nat "node" (f "node"); pdu = pdu_of_json (f "pdu") }
        | "deliver" ->
            layout [ "node"; "origin"; "seq" ];
            Trace.Deliver
              {
                node = as_nat "node" (f "node");
                mid =
                  {
                    Trace.origin = as_nat "origin" (f "origin");
                    seq = as_nat "seq" (f "seq");
                  };
              }
        | "confirm" ->
            layout [ "node"; "origin"; "seq" ];
            Trace.Confirm
              {
                node = as_nat "node" (f "node");
                mid =
                  {
                    Trace.origin = as_nat "origin" (f "origin");
                    seq = as_nat "seq" (f "seq");
                  };
              }
        | "wait_add" ->
            layout [ "node"; "origin"; "seq"; "depth" ];
            Trace.Wait_add
              {
                node = as_nat "node" (f "node");
                mid =
                  {
                    Trace.origin = as_nat "origin" (f "origin");
                    seq = as_nat "seq" (f "seq");
                  };
                depth = as_nat "depth" (f "depth");
              }
        | "wait_discard" ->
            layout [ "node"; "mids" ];
            let mids =
              match f "mids" with
              | Json.List entries -> List.map mid_of_json entries
              | _ -> fail "field \"mids\" must be an array"
            in
            Trace.Wait_discard { node = as_nat "node" (f "node"); mids }
        | "rotate" ->
            layout [ "subrun"; "coordinator" ];
            Trace.Rotate
              {
                subrun = as_nat "subrun" (f "subrun");
                coordinator = as_nat "coordinator" (f "coordinator");
              }
        | "left" ->
            layout [ "node"; "reason" ];
            Trace.Left
              {
                node = as_nat "node" (f "node");
                reason = as_string "reason" (f "reason");
              }
        | "crash" ->
            layout [ "node" ];
            Trace.Crash { node = as_nat "node" (f "node") }
        | "drop" ->
            layout [ "src"; "dst"; "kind"; "stage" ];
            let kind =
              let s = as_string "kind" (f "kind") in
              match Trace.Traffic_class.of_string s with
              | Some k -> k
              | None -> fail "unknown drop kind %S" s
            in
            let stage =
              let s = as_string "stage" (f "stage") in
              match Trace.stage_of_string s with
              | Some st -> st
              | None -> fail "unknown drop stage %S" s
            in
            Trace.Drop
              { src = as_nat "src" (f "src"); dst = as_nat "dst" (f "dst"); kind; stage }
        | "note" ->
            layout [ "source"; "message" ];
            Trace.Note
              {
                source = as_string "source" (f "source");
                message = as_string "message" (f "message");
              }
        | other -> fail "unknown event type %S" other
      in
      { Trace.time; event }
  | Json.Obj _ -> fail "record must start with \"t\" then \"ev\""
  | _ -> fail "record must be an object"

let parse_line line =
  match Json.parse line with
  | Result.Error e -> Result.Error e
  | Ok json -> ( try Ok (record_of_json json) with Parse msg -> Result.Error msg)

let parse_jsonl lines =
  let rec go lineno acc metrics = function
    | [] -> Ok (List.rev acc, metrics)
    | "" :: rest -> go (lineno + 1) acc metrics rest
    | line :: rest -> (
        if metrics <> None then
          Result.Error
            (Printf.sprintf "line %d: content after the metrics line" lineno)
        else
          match Json.parse line with
          | Result.Error e -> Result.Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok (Json.Obj [ ("metrics", _) ]) ->
              go (lineno + 1) acc (Some line) rest
          | Ok json -> (
              match record_of_json json with
              | record -> go (lineno + 1) (record :: acc) metrics rest
              | exception Parse msg ->
                  Result.Error (Printf.sprintf "line %d: %s" lineno msg)))
  in
  go 1 [] None lines

(* -- canonical report export ---------------------------------------------- *)

let buf_summary buf (d : Stats.Summary.t) =
  if d.count = 0 then Buffer.add_string buf "{\"count\":0}"
  else
    Printf.bprintf buf
      "{\"count\":%d,\"mean\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s}"
      d.count (Json.float_str d.mean) (Json.float_str d.min)
      (Json.float_str d.max) (Json.float_str d.p50) (Json.float_str d.p95)

let buf_int_list buf items =
  Buffer.add_char buf '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "%d" v)
    items;
  Buffer.add_char buf ']'

let buf_opt_int buf = function
  | Some v -> Printf.bprintf buf "%d" v
  | None -> Buffer.add_string buf "null"

let coordinator_rows t =
  let nodes =
    List.sort_uniq compare (List.map fst t.rotations @ List.map fst t.decisions)
  in
  List.map
    (fun node ->
      ( node,
        Option.value ~default:0 (List.assoc_opt node t.rotations),
        Option.value ~default:0 (List.assoc_opt node t.decisions) ))
    nodes

let report_json t =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "{\"analysis\":{\"schema\":1,\"nodes\":%d}" t.nodes;
  Printf.bprintf buf
    ",\"coverage\":{\"complete\":%b,\"first_tick\":%d,\"last_tick\":%d,\"events\":%d,\"pre_window_mids\":%d}"
    t.coverage.complete t.coverage.first_tick t.coverage.last_tick
    t.coverage.events t.coverage.pre_window_mids;
  Printf.bprintf buf
    ",\"verdict\":{\"ok\":%b,\"causal_ok\":%b,\"at_most_once_ok\":%b,\"atomicity_ok\":%b,\"zombie_ok\":%b,\"partition_ok\":%b,\"checks_skipped\":"
    (verdict_ok t.verdict) t.verdict.causal_ok t.verdict.at_most_once_ok
    t.verdict.atomicity_ok t.verdict.zombie_ok t.verdict.partition_ok;
  Json.buf_string_list buf t.verdict.skipped;
  Buffer.add_string buf ",\"violations\":";
  Json.buf_string_list buf t.verdict.violations;
  Buffer.add_char buf '}';
  let confirmed =
    List.length (List.filter (fun s -> s.confirmed) t.spans)
  in
  let stable =
    List.length (List.filter (fun s -> s.stable_tick <> None) t.spans)
  in
  let undelivered =
    List.length (List.filter (fun s -> s.deliveries = 0) t.spans)
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 t.spans in
  Printf.bprintf buf
    ",\"lifecycle\":{\"messages\":%d,\"confirmed\":%d,\"group_stable\":%d,\"undelivered\":%d,\"wait_adds\":%d,\"retransmissions\":%d,\"duplicate_recvs\":%d,\"latency_ticks\":"
    (List.length t.spans) confirmed stable undelivered
    (sum (fun s -> s.wait_adds))
    (sum (fun s -> s.retransmissions))
    (sum (fun s -> s.duplicate_recvs));
  buf_summary buf t.latency_ticks;
  Buffer.add_string buf ",\"latency_rtd\":";
  buf_summary buf
    (scale_summary (1.0 /. float_of_int Ticks.per_rtd) t.latency_ticks);
  Buffer.add_string buf ",\"stability_ticks\":";
  buf_summary buf t.stability_ticks;
  Buffer.add_string buf ",\"waiting_ticks\":";
  buf_summary buf t.waiting;
  Buffer.add_char buf '}';
  Buffer.add_string buf ",\"coordinators\":[";
  List.iteri
    (fun i (node, rotations, decisions) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"node\":%d,\"rotations\":%d,\"decisions\":%d}" node rotations
        decisions)
    (coordinator_rows t);
  Buffer.add_char buf ']';
  Printf.bprintf buf
    ",\"recovery\":{\"requests\":%d,\"replies\":%d,\"messages_carried\":%d}"
    t.recover_requests t.recover_replies t.recovered_messages;
  let drops_total = List.fold_left (fun acc (_, c) -> acc + c) 0 t.drops_by_stage in
  Printf.bprintf buf ",\"drops\":{\"total\":%d,\"by_stage\":{" drops_total;
  List.iteri
    (fun i (stage, c) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%s\":%d" (Trace.stage_to_string stage) c)
    t.drops_by_stage;
  Buffer.add_string buf "},\"by_class\":{";
  List.iteri
    (fun i (cls, c) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%s\":%d" (Trace.Traffic_class.to_string cls) c)
    t.drops_by_class;
  Buffer.add_string buf "}}";
  Buffer.add_string buf ",\"faults\":{\"crashed\":";
  buf_int_list buf t.crashed;
  Buffer.add_string buf ",\"left\":";
  buf_int_list buf t.left;
  Buffer.add_char buf '}';
  Buffer.add_string buf ",\"per_message\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"origin\":%d,\"seq\":%d,\"broadcast_tick\":%d,\"deps\":%d,\"bytes\":%d,\"dsts\":%d,\"recvs\":%d,\"duplicate_recvs\":%d,\"retransmissions\":%d,\"wait_adds\":%d,\"waiting_ticks\":%d,\"deliveries\":%d,\"confirmed\":%b,\"first_delivery_tick\":"
        s.mid.Trace.origin s.mid.Trace.seq s.broadcast_tick s.deps s.bytes
        s.dsts s.recvs s.duplicate_recvs s.retransmissions s.wait_adds
        s.waiting_ticks s.deliveries s.confirmed;
      buf_opt_int buf s.first_delivery_tick;
      Buffer.add_string buf ",\"last_delivery_tick\":";
      buf_opt_int buf s.last_delivery_tick;
      Buffer.add_string buf ",\"stable_tick\":";
      buf_opt_int buf s.stable_tick;
      Printf.bprintf buf ",\"recover_requests\":%d,\"discards\":%d}"
        s.recover_requests s.discards)
    t.spans;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* -- Perfetto (Chrome trace-event) export ---------------------------------

   One process, one thread track per node plus "net" and "group" tracks.
   Ticks map to microseconds 1:1.  Events are emitted in record order, so
   the export is as deterministic as the trace itself. *)

let perfetto_json records =
  let n = max_node_index records in
  let net_tid = n and group_tid = n + 1 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  let meta_args tid name =
    sep ();
    Printf.bprintf buf "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":" tid;
    Json.buf_string buf name;
    Buffer.add_string buf "}}"
  in
  sep ();
  Buffer.add_string buf
    "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"urcgc\"}}";
  for i = 0 to n - 1 do
    meta_args i (Printf.sprintf "node %d" i)
  done;
  meta_args net_tid "net";
  meta_args group_tid "group";
  let instant ~tid ~ts ~cat name =
    sep ();
    Printf.bprintf buf
      "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"s\":\"t\",\"cat\":\"%s\",\"name\":"
      tid ts cat;
    Json.buf_string buf name;
    Buffer.add_string buf "}"
  in
  let span ~tid ~ts ~dur ~cat name =
    sep ();
    Printf.bprintf buf
      "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"cat\":\"%s\",\"name\":"
      tid ts dur cat;
    Json.buf_string buf name;
    Buffer.add_string buf "}"
  in
  let mid_name (origin, seq) = Printf.sprintf "n%d#%d" origin seq in
  let broadcast_tick = Hashtbl.create 32 in
  let first_recv = Hashtbl.create 64 in
  let wait_since = Hashtbl.create 32 in
  List.iter
    (fun { Trace.time; event } ->
      let tick = Ticks.to_int time in
      match event with
      | Trace.Broadcast { src; pdu = Trace.Data { origin; seq; _ }; _ }
        when src = origin && not (Hashtbl.mem broadcast_tick (origin, seq)) ->
          Hashtbl.replace broadcast_tick (origin, seq) tick;
          instant ~tid:src ~ts:tick ~cat:"broadcast"
            ("broadcast " ^ mid_name (origin, seq))
      | Trace.Broadcast { src; pdu = Trace.Decision { subrun; _ }; _ }
      | Trace.Send { src; pdu = Trace.Decision { subrun; _ }; _ } ->
          instant ~tid:src ~ts:tick ~cat:"control"
            (Printf.sprintf "decision subrun %d" subrun)
      | Trace.Broadcast
          { src; pdu = Trace.Recover_req { origin; from_seq; to_seq; _ }; _ }
      | Trace.Send
          { src; pdu = Trace.Recover_req { origin; from_seq; to_seq; _ }; _ } ->
          instant ~tid:src ~ts:tick ~cat:"recovery"
            (Printf.sprintf "recover-req n%d %d..%d" origin from_seq to_seq)
      | Trace.Broadcast { src; pdu = Trace.Recover_reply { count; _ }; _ }
      | Trace.Send { src; pdu = Trace.Recover_reply { count; _ }; _ } ->
          instant ~tid:src ~ts:tick ~cat:"recovery"
            (Printf.sprintf "recover-reply (%d)" count)
      | Trace.Broadcast _ | Trace.Send _ -> ()
      | Trace.Receive { node; pdu = Trace.Data { origin; seq; _ } } ->
          if not (Hashtbl.mem first_recv (node, (origin, seq))) then
            Hashtbl.replace first_recv (node, (origin, seq)) tick
      | Trace.Receive _ -> ()
      | Trace.Deliver { node; mid = { Trace.origin; seq } } ->
          let k = (origin, seq) in
          (match Hashtbl.find_opt wait_since (node, k) with
          | Some wt ->
              Hashtbl.remove wait_since (node, k);
              span ~tid:node ~ts:wt ~dur:(tick - wt) ~cat:"waiting"
                ("wait " ^ mid_name k)
          | None -> ());
          let start =
            match Hashtbl.find_opt first_recv (node, k) with
            | Some t -> t
            | None -> (
                match Hashtbl.find_opt broadcast_tick k with
                | Some t -> t
                | None -> tick)
          in
          span ~tid:node ~ts:start ~dur:(tick - start) ~cat:"message"
            (mid_name k)
      | Trace.Confirm _ -> ()
      | Trace.Wait_add { node; mid = { Trace.origin; seq }; _ } ->
          if not (Hashtbl.mem wait_since (node, (origin, seq))) then
            Hashtbl.replace wait_since (node, (origin, seq)) tick
      | Trace.Wait_discard { node; mids } ->
          List.iter
            (fun { Trace.origin; seq } ->
              let k = (origin, seq) in
              (match Hashtbl.find_opt wait_since (node, k) with
              | Some wt ->
                  Hashtbl.remove wait_since (node, k);
                  span ~tid:node ~ts:wt ~dur:(tick - wt) ~cat:"waiting"
                    ("wait " ^ mid_name k)
              | None -> ());
              instant ~tid:node ~ts:tick ~cat:"discard"
                ("discard " ^ mid_name k))
            mids
      | Trace.Rotate { subrun; coordinator } ->
          instant ~tid:group_tid ~ts:tick ~cat:"rotate"
            (Printf.sprintf "subrun %d: coordinator n%d" subrun coordinator)
      | Trace.Left { node; reason } ->
          instant ~tid:node ~ts:tick ~cat:"membership" ("left: " ^ reason)
      | Trace.Crash { node } -> instant ~tid:node ~ts:tick ~cat:"fault" "crash"
      | Trace.Drop { src; dst; kind; stage } ->
          instant ~tid:net_tid ~ts:tick ~cat:"drop"
            (Printf.sprintf "drop %s n%d->n%d (%s)"
               (Trace.Traffic_class.to_string kind)
               src dst
               (Trace.stage_to_string stage))
      | Trace.Note _ -> ())
    records;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* -- human summary -------------------------------------------------------- *)

let pp_summary ppf t =
  let rtd ticks = ticks /. float_of_int Ticks.per_rtd in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "trace: %d events, ticks %d..%d%s@,"
    t.coverage.events t.coverage.first_tick t.coverage.last_tick
    (if t.coverage.complete then ""
     else
       Printf.sprintf " (truncated window, %d pre-window messages)"
         t.coverage.pre_window_mids);
  Format.fprintf ppf "group: %d nodes; crashed %s; left %s@," t.nodes
    (Printf.sprintf "[%s]" (String.concat "," (List.map string_of_int t.crashed)))
    (Printf.sprintf "[%s]" (String.concat "," (List.map string_of_int t.left)));
  let confirmed = List.length (List.filter (fun s -> s.confirmed) t.spans) in
  let stable = List.length (List.filter (fun s -> s.stable_tick <> None) t.spans) in
  Format.fprintf ppf "messages: %d tracked, %d confirmed, %d group-stable@,"
    (List.length t.spans) confirmed stable;
  if t.latency_ticks.count > 0 then
    Format.fprintf ppf
      "latency: mean %.2f rtd, p95 %.2f rtd over %d remote deliveries@,"
      (rtd t.latency_ticks.mean) (rtd t.latency_ticks.p95)
      t.latency_ticks.count;
  if t.waiting.count > 0 then
    Format.fprintf ppf
      "waiting list: %d stays, mean %.2f rtd, max %.2f rtd@," t.waiting.count
      (rtd t.waiting.mean) (rtd t.waiting.max);
  List.iter
    (fun (node, rotations, decisions) ->
      Format.fprintf ppf "coordinator n%d: %d rotations, %d decisions@," node
        rotations decisions)
    (coordinator_rows t);
  if t.recover_requests > 0 || t.recover_replies > 0 then
    Format.fprintf ppf
      "recovery: %d requests, %d replies carrying %d messages@,"
      t.recover_requests t.recover_replies t.recovered_messages;
  let drops_total = List.fold_left (fun acc (_, c) -> acc + c) 0 t.drops_by_stage in
  if drops_total > 0 then
    Format.fprintf ppf "drops: %d (%s)@," drops_total
      (String.concat ", "
         (List.map
            (fun (stage, c) ->
              Printf.sprintf "%s %d" (Trace.stage_to_string stage) c)
            t.drops_by_stage));
  (if verdict_ok t.verdict then
     Format.fprintf ppf
       "oracle: OK (causal, at-most-once, atomicity, no-zombie)"
   else begin
     Format.fprintf ppf "oracle: VIOLATIONS";
     List.iter
       (fun v -> Format.fprintf ppf "@,  - %s" v)
       t.verdict.violations
   end);
  List.iter
    (fun s -> Format.fprintf ppf "@,  (skipped) %s" s)
    t.verdict.skipped;
  Format.fprintf ppf "@]"
