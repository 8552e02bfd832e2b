(** Offline trace analyzer.

    Reconstructs per-message lifecycles from a typed protocol trace (held in
    memory or parsed back from the JSONL export of [docs/TRACE.md]),
    re-checks the protocol invariants purely from events, and renders two
    deterministic exports: a canonical single-line JSON report and a Chrome
    trace-event (Perfetto) timeline.

    The analyzer sits below the protocol libraries, so nodes are integer
    indices and messages are [(origin, seq)] pairs, exactly as traced.  It
    tolerates bounded-ring truncation: when the trace is a suffix of the run
    it reports a coverage window and skips the checks a missing prefix would
    false-flag, instead of reporting spurious violations. *)

type coverage = {
  complete : bool;
      (** whether the trace covers the run from tick 0 (a bounded ring keeps
          only the newest records, leaving a suffix window) *)
  first_tick : int;
  last_tick : int;
  events : int;
  pre_window_mids : int;
      (** messages referenced by events in the window whose broadcast
          happened before it *)
}

type span = {
  mid : Trace.mid;
  broadcast_tick : int;
  deps : int;
  bytes : int;
  dsts : int;
  recvs : int;
  duplicate_recvs : int;
  retransmissions : int;  (** relays and repeat sends of the same mid *)
  wait_adds : int;
  waiting_ticks : int;  (** total waiting-list residency across nodes *)
  deliveries : int;
  confirmed : bool;
  first_delivery_tick : int option;
  last_delivery_tick : int option;
  stable_tick : int option;
      (** tick at which every survivor had processed the message *)
  recover_requests : int;
      (** recovery requests whose seq range covers this message *)
  discards : int;
}
(** One message lifecycle: broadcast through per-node processing to
    group-wide stability. *)

type verdict = {
  causal_ok : bool;
  at_most_once_ok : bool;
  atomicity_ok : bool;
  zombie_ok : bool;
      (** no survivor processed a discarded mid, and no node processed
          anything at a tick strictly after its [left] event *)
  partition_ok : bool;
      (** no [left] event carries the solo-view (primary partition lost)
          reason; see docs/TRACE.md *)
  skipped : string list;
      (** checks suppressed because the window is truncated *)
  violations : string list;
}
(** Trace-level invariant oracle outcome.  The bits line up with
    [Workload.Checker.verdict] (minus view agreement, which is not derivable
    from the trace), which is what the cross-validation property test
    compares. *)

val verdict_ok : verdict -> bool

type t = {
  nodes : int;
  coverage : coverage;
  spans : span list;  (** sorted by [(origin, seq)] *)
  latency_ticks : Metrics.summary;
      (** broadcast-to-processing, remote deliveries; each tick summary is
          {!Metrics.summary_of_ints}, all-zero when empty *)
  stability_ticks : Metrics.summary;  (** broadcast to group-wide stability *)
  waiting : Metrics.summary;  (** waiting-list residency per stay *)
  rotations : (int * int) list;  (** coordinator node -> rotations led *)
  decisions : (int * int) list;  (** coordinator node -> decision PDUs *)
  recover_requests : int;
  recover_replies : int;
  recovered_messages : int;  (** total messages carried by replies *)
  drops_by_stage : (Trace.stage * int) list;
  drops_by_class : (Trace.Traffic_class.t * int) list;
  crashed : int list;
  left : int list;
  verdict : verdict;
  metrics_json : string option;
      (** the trailing metrics line of the JSONL input, verbatim, if any *)
}

val analyze :
  ?n:int -> ?complete:bool -> ?metrics_json:string -> Trace.record list -> t
(** Analyze a record sequence (oldest first, as produced by
    {!Trace.records}).

    [n] overrides the inferred group size (the default is one past the
    highest node index mentioned anywhere in the trace, which undercounts
    only if a member is completely silent).  [complete] overrides window
    autodetection — a complete urcgc trace starts with the subrun-0 rotation
    at tick 0; pass [~complete:true] for synthetic event lists that skip the
    preamble.  [metrics_json] is stored verbatim in the result. *)

val parse_line : string -> (Trace.record, string) result
(** Parse one JSONL line against the [docs/TRACE.md] schema.  Strict: the
    exact documented field names, order, and types are enforced, and unknown
    events, pdu kinds, drop kinds, or stages are errors. *)

val parse_jsonl :
  string list -> (Trace.record list * string option, string) result
(** Parse the lines of a trace file.  Blank lines are skipped; a trailing
    [{"metrics":...}] line (from [--metrics]) is returned verbatim as the
    second component; anything after it is an error.  Errors are prefixed
    with the 1-based line number. *)

val report_json : t -> string
(** Canonical single-line JSON analysis report: fixed field order, integers
    and [%.12g] floats only — byte-identical for identical traces.  Contains
    coverage, the oracle verdict, lifecycle aggregates (latency, stability
    and waiting distributions), per-coordinator load, recovery and drop
    tallies, fault sets, and the per-message span table.  The run metrics
    line, if any, is {e not} embedded; read it from [metrics_json]. *)

val perfetto_json : Trace.record list -> string
(** Chrome trace-event (Perfetto / chrome://tracing / ui.perfetto.dev) JSON
    timeline: one thread track per node plus "net" and "group" tracks;
    complete spans for message processing and waiting-list residency;
    instants for broadcasts, rotations, membership changes, crashes, drops,
    decisions, and recovery traffic.  One tick maps to one microsecond.
    Deterministic: events are emitted in record order. *)

val pp_summary : Format.formatter -> t -> unit
(** Multi-line human rendering of the headline numbers and the verdict. *)
