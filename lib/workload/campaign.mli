(** Randomized fault-campaign harness.

    A campaign sweeps a grid of randomized scenario configurations — group
    size, offered load, crash schedules, send/receive omission probabilities,
    link loss, and per-subrun adversarial silencing up to (and, on request,
    beyond) the paper's resilience bound [t = (n-1)/2].  Every run is driven
    by a seed derived deterministically from the campaign seed, executed on
    the simulator, and judged by {!Checker.check} plus liveness/progress
    invariants.  A failing run is automatically {e shrunk} to a minimal
    reproducer and the whole campaign is emitted as a machine-readable JSON
    report, so any failure replays with [urcgc_sim replay].

    Everything here is a pure function of the campaign seed: running the
    same campaign twice produces byte-identical JSON. *)

type spec = {
  n : int;  (** group cardinality *)
  k : int;  (** crash-detection retries K *)
  rate : float;  (** per-process submission probability per round *)
  messages : int;  (** global cap on generated messages *)
  send_omission : float;
  recv_omission : float;
  link_loss : float;
  silenced_per_subrun : int;
      (** adversarial burst size; the resilience budget is [t = (n-1)/2] *)
  crashes : (int * int) list;  (** fail-stop schedule as (node, subrun) *)
  max_rtd : float;  (** simulated-time cap *)
}

val pp_spec : Format.formatter -> spec -> unit

val resilience : spec -> int
(** The budget [t = (n-1)/2] for this spec's group size. *)

val within_budget : spec -> bool
(** Whether [silenced_per_subrun] plus the crash count stays within [t]. *)

val validate_spec : spec -> unit
(** Raises [Invalid_argument] with a one-line diagnosis when the spec is
    malformed: group too small, [k < 1], a probability outside [0,1], a
    negative message cap, a silenced count outside [0,n), a crash of a node
    outside the group or at a negative subrun, or a non-positive time cap.
    {!scenario_of_spec} calls this, so both the campaign and the replay
    paths reject bad CLI input instead of silently ignoring it. *)

val fault_of_spec : spec -> Net.Fault.spec

val scenario_of_spec : ?name:string -> seed:int -> spec -> Scenario.t
(** Raises [Invalid_argument] via {!validate_spec} on malformed specs. *)

type outcome = {
  ok : bool;
  violations : string list;
      (** checker violations plus liveness/progress failures *)
}

val evaluate : spec -> Runner.report -> outcome
(** Safety clauses from {!Checker} plus:
    - {b progress}: a run with a positive cap and rate generates messages;
    - {b delivery}: some remote processing happens whenever anything was
      generated and at least two processes exist;
    - {b termination}: a within-budget run with no crash schedule and no
      departures drains completely — every generated message is processed
      at all [n - 1] remote processes before the time cap. *)

val execute :
  ?metrics:Sim.Metrics.t -> ?tracer:Sim.Trace.t -> seed:int -> spec ->
  outcome * Runner.report
(** Build the scenario, run the simulation, evaluate.  [metrics] (default
    {!Sim.Metrics.null}) and [tracer] are forwarded to {!Runner.run}. *)

type shrunk = {
  shrunk_spec : spec;  (** minimal configuration that still fails *)
  shrunk_violations : string list;  (** what the minimal reproducer violates *)
  shrink_steps : int;  (** simulation runs spent shrinking *)
}

val shrink : ?jobs:int -> seed:int -> spec -> outcome -> shrunk
(** Greedy fixpoint minimization of a failing spec under the same seed:
    bisect the message cap, shed processes, trim the crash schedule, zero or
    halve the omission/loss probabilities, reduce the burst size, tighten
    the time cap — keeping each reduction only if the run still fails in
    the same class (a safety failure never degenerates into a liveness-only
    one, e.g. by truncating a healthy run at a tightened time cap).
    At most 150 simulation runs are {e recorded}.

    With [jobs > 1] each round's candidate list is evaluated speculatively
    in parallel on {!Sim.Pool} and the {e first-accepting candidate in
    candidate order} wins, charged the steps a sequential scan would have
    consumed — so the shrunk spec, its violations, and [shrink_steps] are
    identical at any job count; only wall-clock time changes. *)

type run = {
  index : int;
  seed : int;  (** derived run seed; [urcgc_sim replay] takes this *)
  spec : spec;
  outcome : outcome;
  generated : int;
  delivered_remote : int;
  subruns : int;
  mean_delay_rtd : float;
  shrunk : shrunk option;  (** present iff the run failed and shrinking ran *)
  metrics : string option;
      (** per-run {!Sim.Metrics} registry rendered to JSON; present iff the
          campaign ran with [with_metrics] *)
  analysis : string option;
      (** per-run [Sim.Analysis] report JSON; present iff the campaign ran
          with [with_analysis] *)
  oracle_agrees : bool option;
      (** whether the trace oracle's verdict agrees with the live checker's
          ({!Analyzer.agrees}); present iff [with_analysis] *)
}

type t = {
  campaign_seed : int;
  budget : int;  (** number of runs *)
  over_budget : bool;  (** whether the sweep forces bursts beyond [t] *)
  runs : run list;
  failed : int;
}

val generate : ?over_budget:bool -> Sim.Rng.t -> spec
(** Draw one random configuration.  With [over_budget] (default false) the
    burst size is forced strictly beyond the resilience bound; otherwise
    every draw keeps the total failure count per subrun within [t]. *)

val run :
  ?over_budget:bool -> ?shrink_failures:bool -> ?with_metrics:bool ->
  ?with_analysis:bool -> ?jobs:int -> budget:int -> seed:int -> unit -> t
(** Run a whole campaign.  [shrink_failures] (default true) minimizes every
    failing run.  [with_metrics] (default false) records a fresh
    {!Sim.Metrics} registry per run and embeds its JSON in the report.
    [with_analysis] (default false) traces every run, feeds it through the
    offline [Sim.Analysis] oracle, and embeds the analysis report plus the
    checker-vs-oracle agreement bit.

    [jobs] (default 1) is the {!Sim.Pool} worker count for the parallel
    phases; [0] means the detected core count.  Spec generation stays
    sequential (the draw order of the campaign stream is part of the
    determinism contract), the runs execute in parallel and merge back in
    index order, and failures shrink with speculative parallel candidate
    evaluation — so {!to_json} output is byte-identical at any [jobs],
    including the [with_metrics]/[with_analysis] variants. *)

val repro_command : seed:int -> spec -> string
(** The [urcgc_sim replay ...] command line reproducing this exact run. *)

val to_json : t -> string
(** The full campaign as one deterministic JSON document (schema in
    [docs/CAMPAIGN.md]). *)

val summary_table : t -> Stats.Table.t

val pp_summary : Format.formatter -> t -> unit
