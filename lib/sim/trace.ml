type mid = { origin : int; seq : int }

(* Closed set of subnetwork traffic classes (mirrors [Net.Traffic.kind],
   which lives above this library).  Drop events carry one of these instead
   of a free-form string so consumers — the analyzer in particular — never
   string-match; the JSONL rendering is unchanged. *)
module Traffic_class = struct
  type t = Data | Control | Recovery | Ack

  let to_string = function
    | Data -> "data"
    | Control -> "control"
    | Recovery -> "recovery"
    | Ack -> "ack"

  let of_string = function
    | "data" -> Some Data
    | "control" -> Some Control
    | "recovery" -> Some Recovery
    | "ack" -> Some Ack
    | _ -> None

  let all = [ Data; Control; Recovery; Ack ]
end

type pdu =
  | Data of { origin : int; seq : int; deps : int; bytes : int }
  | Request of { sender : int; subrun : int }
  | Decision of { subrun : int; coordinator : int; full_group : bool }
  | Recover_req of { requester : int; origin : int; from_seq : int; to_seq : int }
  | Recover_reply of { responder : int; count : int }

type stage = On_send | On_link | On_recv | On_filter

let stage_to_string = function
  | On_send -> "send"
  | On_link -> "link"
  | On_recv -> "recv"
  | On_filter -> "filter"

let stage_of_string = function
  | "send" -> Some On_send
  | "link" -> Some On_link
  | "recv" -> Some On_recv
  | "filter" -> Some On_filter
  | _ -> None

type event =
  | Send of { src : int; dst : int; pdu : pdu }
  | Broadcast of { src : int; dsts : int; pdu : pdu }
  | Receive of { node : int; pdu : pdu }
  | Deliver of { node : int; mid : mid }
  | Confirm of { node : int; mid : mid }
  | Wait_add of { node : int; mid : mid; depth : int }
  | Wait_discard of { node : int; mids : mid list }
  | Rotate of { subrun : int; coordinator : int }
  | Left of { node : int; reason : string }
  | Crash of { node : int }
  | Drop of { src : int; dst : int; kind : Traffic_class.t; stage : stage }
  | Note of { source : string; message : string }

type record = { time : Ticks.t; event : event }

(* The null sink is an immutable constructor: copies of it share nothing
   mutable, and emitting to it neither allocates nor retains. *)
type t = Null | Sink of sink
and sink = { capacity : int; mutable total : int; queue : record Queue.t }

let null = Null

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  Sink { capacity; total = 0; queue = Queue.create () }

let unbounded () = Sink { capacity = max_int; total = 0; queue = Queue.create () }

let enabled = function Null -> false | Sink _ -> true

let emit t ~time event =
  match t with
  | Null -> ()
  | Sink s ->
      s.total <- s.total + 1;
      Queue.push { time; event } s.queue;
      if Queue.length s.queue > s.capacity then ignore (Queue.pop s.queue)

let note t ~time ~source fmt =
  match t with
  | Null -> Format.ikfprintf ignore Format.str_formatter fmt
  | Sink _ ->
      Format.kasprintf (fun message -> emit t ~time (Note { source; message })) fmt

let records = function
  | Null -> []
  | Sink s -> List.of_seq (Queue.to_seq s.queue)

let count = function Null -> 0 | Sink s -> s.total

let retained = function Null -> 0 | Sink s -> Queue.length s.queue

let find t ~f =
  match t with Null -> None | Sink s -> Seq.find f (Queue.to_seq s.queue)

let iter t ~f = match t with Null -> () | Sink s -> Queue.iter f s.queue

(* -- human rendering ------------------------------------------------------ *)

let pp_pdu ppf = function
  | Data { origin; seq; deps; bytes } ->
      Format.fprintf ppf "data n%d#%d (%d deps, %d B)" origin seq deps bytes
  | Request { sender; subrun } ->
      Format.fprintf ppf "request from n%d (subrun %d)" sender subrun
  | Decision { subrun; coordinator; full_group } ->
      Format.fprintf ppf "decision subrun %d by n%d%s" subrun coordinator
        (if full_group then " (full group)" else "")
  | Recover_req { requester; origin; from_seq; to_seq } ->
      Format.fprintf ppf "recover-req n%d wants n%d seq %d..%d" requester
        origin from_seq to_seq
  | Recover_reply { responder; count } ->
      Format.fprintf ppf "recover-reply from n%d (%d msgs)" responder count

let event_source = function
  | Send { src; _ } | Broadcast { src; _ } -> Printf.sprintf "n%d" src
  | Receive { node; _ }
  | Deliver { node; _ }
  | Confirm { node; _ }
  | Wait_add { node; _ }
  | Wait_discard { node; _ }
  | Left { node; _ }
  | Crash { node; _ } ->
      Printf.sprintf "n%d" node
  | Rotate _ -> "group"
  | Drop _ -> "net"
  | Note { source; _ } -> source

let event_message event =
  match event with
  | Send { dst; pdu; _ } -> Format.asprintf "send to n%d: %a" dst pp_pdu pdu
  | Broadcast { dsts; pdu; _ } ->
      Format.asprintf "broadcast to %d peers: %a" dsts pp_pdu pdu
  | Receive { pdu; _ } -> Format.asprintf "receive %a" pp_pdu pdu
  | Deliver { mid; _ } -> Printf.sprintf "processed n%d#%d" mid.origin mid.seq
  | Confirm { mid; _ } -> Printf.sprintf "confirmed n%d#%d" mid.origin mid.seq
  | Wait_add { mid; depth; _ } ->
      Printf.sprintf "waiting for predecessors of n%d#%d (depth %d)" mid.origin
        mid.seq depth
  | Wait_discard { mids; _ } ->
      Printf.sprintf "discarded %d orphaned messages" (List.length mids)
  | Rotate { subrun; coordinator } ->
      Printf.sprintf "subrun %d coordinator is n%d" subrun coordinator
  | Left { reason; _ } -> Printf.sprintf "left the group: %s" reason
  | Crash { node } -> Printf.sprintf "fail-stop of n%d" node
  | Drop { src; dst; kind; stage } ->
      Printf.sprintf "dropped %s packet n%d->n%d (%s)"
        (Traffic_class.to_string kind)
        src dst (stage_to_string stage)
  | Note { message; _ } -> message

let pp_record ppf { time; event } =
  Format.fprintf ppf "[%a] %-12s %s" Ticks.pp time (event_source event)
    (event_message event)

let dump ppf t = iter t ~f:(fun r -> Format.fprintf ppf "%a@." pp_record r)

(* -- JSONL export ---------------------------------------------------------

   One JSON object per line, fields in a fixed order, integers and
   double-quoted strings only: the export is a pure function of the record
   sequence, which the determinism guarantee relies on. *)

let buf_pdu buf = function
  | Data { origin; seq; deps; bytes } ->
      Printf.bprintf buf
        "{\"kind\":\"data\",\"origin\":%d,\"seq\":%d,\"deps\":%d,\"bytes\":%d}"
        origin seq deps bytes
  | Request { sender; subrun } ->
      Printf.bprintf buf "{\"kind\":\"request\",\"sender\":%d,\"subrun\":%d}"
        sender subrun
  | Decision { subrun; coordinator; full_group } ->
      Printf.bprintf buf
        "{\"kind\":\"decision\",\"subrun\":%d,\"coordinator\":%d,\"full_group\":%b}"
        subrun coordinator full_group
  | Recover_req { requester; origin; from_seq; to_seq } ->
      Printf.bprintf buf
        "{\"kind\":\"recover_req\",\"requester\":%d,\"origin\":%d,\"from\":%d,\"to\":%d}"
        requester origin from_seq to_seq
  | Recover_reply { responder; count } ->
      Printf.bprintf buf
        "{\"kind\":\"recover_reply\",\"responder\":%d,\"count\":%d}" responder
        count

let buf_record buf { time; event } =
  Printf.bprintf buf "{\"t\":%d,\"ev\":" (Ticks.to_int time);
  (match event with
  | Send { src; dst; pdu } ->
      Printf.bprintf buf "\"send\",\"src\":%d,\"dst\":%d,\"pdu\":" src dst;
      buf_pdu buf pdu
  | Broadcast { src; dsts; pdu } ->
      Printf.bprintf buf "\"broadcast\",\"src\":%d,\"dsts\":%d,\"pdu\":" src
        dsts;
      buf_pdu buf pdu
  | Receive { node; pdu } ->
      Printf.bprintf buf "\"recv\",\"node\":%d,\"pdu\":" node;
      buf_pdu buf pdu
  | Deliver { node; mid } ->
      Printf.bprintf buf "\"deliver\",\"node\":%d,\"origin\":%d,\"seq\":%d"
        node mid.origin mid.seq
  | Confirm { node; mid } ->
      Printf.bprintf buf "\"confirm\",\"node\":%d,\"origin\":%d,\"seq\":%d"
        node mid.origin mid.seq
  | Wait_add { node; mid; depth } ->
      Printf.bprintf buf
        "\"wait_add\",\"node\":%d,\"origin\":%d,\"seq\":%d,\"depth\":%d" node
        mid.origin mid.seq depth
  | Wait_discard { node; mids } ->
      Printf.bprintf buf "\"wait_discard\",\"node\":%d,\"mids\":[" node;
      List.iteri
        (fun i m ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "[%d,%d]" m.origin m.seq)
        mids;
      Buffer.add_char buf ']'
  | Rotate { subrun; coordinator } ->
      Printf.bprintf buf "\"rotate\",\"subrun\":%d,\"coordinator\":%d" subrun
        coordinator
  | Left { node; reason } ->
      Printf.bprintf buf "\"left\",\"node\":%d,\"reason\":" node;
      Json.buf_string buf reason
  | Crash { node } -> Printf.bprintf buf "\"crash\",\"node\":%d" node
  | Drop { src; dst; kind; stage } ->
      Printf.bprintf buf "\"drop\",\"src\":%d,\"dst\":%d,\"kind\":" src dst;
      Json.buf_string buf (Traffic_class.to_string kind);
      Buffer.add_string buf ",\"stage\":";
      Json.buf_string buf (stage_to_string stage)
  | Note { source; message } ->
      Buffer.add_string buf "\"note\",\"source\":";
      Json.buf_string buf source;
      Buffer.add_string buf ",\"message\":";
      Json.buf_string buf message);
  Buffer.add_char buf '}'

let json_of_record record =
  let buf = Buffer.create 128 in
  buf_record buf record;
  Buffer.contents buf

let pp_jsonl ppf t =
  iter t ~f:(fun record ->
      Format.fprintf ppf "%s@\n" (json_of_record record))
