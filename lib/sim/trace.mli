(** Typed protocol trace.

    The simulator components emit structured {!event}s into a {!t} sink,
    and free-form narration goes into the same sink as {!Note} events.  The
    sim library sits below the protocol libraries, so events refer to nodes
    by integer index and to messages by [(origin, seq)] pairs — exactly the
    representation the JSONL export uses.

    The event schema and the JSONL field layout are documented in
    [docs/TRACE.md]; the export is deterministic (fixed field order, fixed
    number formatting), so a fixed-seed run serializes byte-identically. *)

type mid = { origin : int; seq : int }

(** Closed set of subnetwork traffic classes (the sim-level mirror of
    [Net.Traffic.kind], which lives above this library).  {!event.Drop}
    carries one of these instead of a free-form string, so consumers match
    on constructors rather than strings; the JSONL rendering is exactly the
    lower-case constructor name and is byte-identical to the old free-form
    output. *)
module Traffic_class : sig
  type t = Data | Control | Recovery | Ack

  val to_string : t -> string

  val of_string : string -> t option
  (** Inverse of {!to_string}; [None] on anything else. *)

  val all : t list
  (** Every class, in rendering order. *)
end

type pdu =
  | Data of { origin : int; seq : int; deps : int; bytes : int }
  | Request of { sender : int; subrun : int }
  | Decision of { subrun : int; coordinator : int; full_group : bool }
  | Recover_req of { requester : int; origin : int; from_seq : int; to_seq : int }
  | Recover_reply of { responder : int; count : int }

type stage = On_send | On_link | On_recv | On_filter
(** Where in the network pipeline a packet was dropped. *)

val stage_to_string : stage -> string

val stage_of_string : string -> stage option
(** Inverse of {!stage_to_string}; [None] on anything else. *)

type event =
  | Send of { src : int; dst : int; pdu : pdu }  (** unicast PDU send *)
  | Broadcast of { src : int; dsts : int; pdu : pdu }
      (** one PDU offered to [dsts] destinations *)
  | Receive of { node : int; pdu : pdu }
  | Deliver of { node : int; mid : mid }
      (** the message was processed (causally delivered) at [node] *)
  | Confirm of { node : int; mid : mid }  (** own message locally processed *)
  | Wait_add of { node : int; mid : mid; depth : int }
      (** entered the waiting list; [depth] is the list length after the add *)
  | Wait_discard of { node : int; mids : mid list }
      (** orphaned waiting messages destroyed by group agreement *)
  | Rotate of { subrun : int; coordinator : int }  (** coordinator rotation *)
  | Left of { node : int; reason : string }
  | Crash of { node : int }  (** fault injection: scheduled fail-stop *)
  | Drop of { src : int; dst : int; kind : Traffic_class.t; stage : stage }
      (** fault injection: the subnetwork lost a packet *)
  | Note of { source : string; message : string }
      (** free-form narration, emitted via {!note} *)

type record = { time : Ticks.t; event : event }

type t = Null | Sink of sink
and sink = { capacity : int; mutable total : int; queue : record Queue.t }

val null : t
(** Discards everything.  [Null] is a plain constructor: it holds no state,
    so sharing or copying it cannot leak events between users, and emitting
    to it retains nothing. *)

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of retained records (default 65536); once
    full, the ring drops the oldest record on every emit, so the sink always
    holds the newest [capacity] records — a contiguous {e suffix} of the
    run.  {!count} keeps reporting the total ever emitted (so
    [count t - retained t] is the number dropped), which is how the analyzer
    detects truncation and reports a coverage window.  Raises
    [Invalid_argument] if [capacity <= 0]. *)

val unbounded : unit -> t
(** A sink that never drops — used by the [urcgc_sim trace] export, where
    completeness matters more than bounded memory. *)

val enabled : t -> bool
(** [false] exactly for {!null}.  Emit points guard event construction with
    this so a disabled trace costs no allocation. *)

val emit : t -> time:Ticks.t -> event -> unit

val note :
  t ->
  time:Ticks.t ->
  source:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Emits a {!Note} with a formatted message; on {!null} the message is
    never even formatted. *)

val records : t -> record list
(** Retained records, oldest first. *)

val count : t -> int
(** Total number of events emitted, including dropped ones. *)

val retained : t -> int
(** Number of records currently held ([<= capacity]; [count] minus the
    records the ring dropped). *)

val find : t -> f:(record -> bool) -> record option

val iter : t -> f:(record -> unit) -> unit

val event_source : event -> string
(** Short component label ("n3", "net", "group", or the {!Note} source). *)

val event_message : event -> string
(** One-line human rendering. *)

val pp_pdu : Format.formatter -> pdu -> unit
val pp_record : Format.formatter -> record -> unit
(** [\[time\] source message]. *)

val dump : Format.formatter -> t -> unit
(** Every retained record, one {!pp_record} line each. *)

val json_of_record : record -> string
(** One JSON object, no trailing newline.  Field order is fixed; see
    [docs/TRACE.md]. *)

val pp_jsonl : Format.formatter -> t -> unit
(** Every retained record as one JSON line. *)
