(** Hierarchical span profiler with wall-clock and GC cost attribution.

    [Prof] answers the question the benches cannot: {e which phase} of a
    run burns the time and allocates the words.  Code on the hot path is
    instrumented with {!enter}/{!exit} probes (or the exception-safe
    {!span} wrapper off the hot path); each (parent, name) pair becomes a
    node in a span tree that accumulates invocation counts, wall-clock
    time, and [Gc.quick_stat] deltas (minor/major/promoted words, minor
    and major collections).  A finished tree is captured as a {!report}
    and exported two ways: a canonical JSON cost-attribution report and a
    folded-stacks file directly consumable by [flamegraph.pl] or
    speedscope.

    {b Disabled mode is the default and costs one branch.}  The probes
    are guarded by a single global flag: with profiling off, {!enter} and
    {!exit} read one [bool ref] and return, so instrumenting a hot path
    does not perturb it (the [profile-overhead] bench pins this below a
    few percent on the committed hot-path scenarios).  Probes never touch
    any RNG, so enabling profiling cannot change a simulation's outputs.

    {b Single-domain.}  The profiler is one global mutable tree and is
    not safe to mutate from several domains.  Callers that fan work over
    [Pool] must run sequentially while profiling ([Workload.Campaign]
    forces [jobs = 1] when the profiler is enabled); [Pool]'s own
    per-domain counters are collected independently of the span stack and
    remain valid at any job count.

    {b Determinism.}  Span names, tree shape, invocation counts, and
    attached counters are pure functions of the instrumented program, so
    {!structural_json} is byte-comparable across runs, compilers, and
    machines.  Times and GC words vary; they appear only in
    {!report_json} and {!folded}. *)

(** {2 Probes (hot path)} *)

val enabled : unit -> bool
(** One global flag read; [false] unless {!enable} ran. *)

val on : bool ref
(** The raw flag behind {!enabled}.  Hot-path call sites guard probes
    with [if !Prof.on then ...] so the disabled cost is a load and a
    branch rather than a cross-module call.  Read-only for callers —
    flip it only through {!enable}/{!disable}. *)

val enter : string -> unit
(** Open a child span of the current span (creating the node on first
    entry).  No-op when disabled. *)

val exit : unit -> unit
(** Close the current span, folding its wall-clock and GC deltas into its
    node.  No-op when disabled.  Raises [Invalid_argument] when enabled
    and no span is open — an unbalanced probe is a bug worth crashing a
    profiled run over. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] is {!enter}[ name; ]{!exit}[ ()] around [f ()],
    exception-safe ([f] raising still closes the span).  Allocates a
    closure at the call site even when disabled — use the raw probes on
    allocation-sensitive hot paths. *)

val count : ?by:int -> string -> unit
(** Add [by] (default 1) to a named counter on the {e current} span —
    deterministic attribution (pruning hits, cache misses) that rides the
    tree into both exports.  No-op when disabled. *)

(** {2 Lifecycle} *)

val enable : unit -> unit
(** Reset all state and start profiling: a fresh root span ([root])
    opens and the global flag flips on.  Idempotent only in the sense
    that calling it again discards the tree so far. *)

val disable : unit -> unit
(** Flip the flag off and discard all state.  No-op when disabled. *)

(** {2 Reports} *)

type report
(** An immutable snapshot of the finished span tree. *)

val capture : unit -> report
(** Close the root span and snapshot the tree; profiling is left
    disabled afterwards.  Raises [Invalid_argument] naming the open
    spans if any span other than the root is still open (unbalanced
    {!enter}), or if profiling is disabled. *)

type stat = {
  name : string;
  count : int;
  total_ns : float;  (** inclusive wall-clock *)
  self_ns : float;  (** [total_ns] minus the children's [total_ns] *)
  minor_words : float;
  major_words : float;
  promoted_words : float;
  self_minor_words : float;
  minor_collections : int;
  major_collections : int;
  latency : Stats.Summary.t;  (** per-invocation wall-clock, ns *)
  counters : (string * int) list;  (** sorted by name *)
  children : stat list;  (** first-entered order *)
}

val root : report -> stat

val coverage : report -> float
(** Fraction of the root's wall-clock attributed to instrumented child
    spans: [1 - root self / root total].  1.0 when the root has no
    un-attributed time; the CI acceptance gate wants >= 0.9. *)

val report_json : report -> string
(** Canonical single-line JSON cost-attribution report (schema
    [urcgc.prof/1], documented in [docs/PROFILE.md]): the span tree with
    counts, total/self time, total/self allocation, GC collections,
    per-span latency summaries (p50/p95/max via [Stats.Summary]), and
    counters. *)

val structural_json : report -> string
(** The same tree stripped of every nondeterministic field (times, GC
    words, collections, latency): names, counts, and counters only
    (schema [urcgc.prof.structural/1]).  Byte-comparable across runs and
    compilers for a fixed-seed workload. *)

val folded : report -> string
(** Folded stacks, one line per span node:
    ["root;campaign.run;member.drain 1234"] where the value is the span's
    self-time in nanoseconds — feed to [flamegraph.pl] or paste into
    speedscope.  Lines in depth-first (first-entered) order. *)

val pp_summary : Format.formatter -> report -> unit
(** Human summary: wall-clock, coverage, and the top spans by self
    time. *)
