(** Fork-join work scheduler for embarrassingly parallel index spaces.

    [map ~jobs f tasks] computes [[| f 0; ...; f (tasks - 1) |]].  The
    tasks are distributed over [jobs] workers and the results are merged
    back {e in index order}, so the output is independent of scheduling:
    callers that are pure functions of their index (the campaign harness
    derives every run from [Rng.derive ~seed index]) get byte-identical
    results at any job count.

    On OCaml 5 the workers are domains ([Pool_backend] is selected by a
    build rule on the compiler version); on 4.14 the same interface runs
    the tasks sequentially, so code written against [Pool] builds and
    behaves identically on both — only the wall-clock differs. *)

val available : bool
(** Whether the parallel (domains) backend is compiled in.  [false] means
    {!map} always runs sequentially regardless of [jobs]. *)

val default_jobs : unit -> int
(** The detected core count ([Domain.recommended_domain_count ()]), or [1]
    on the sequential backend. *)

type domain_stat = Pool_backend.domain_stat = {
  tasks : int;  (** tasks this worker executed *)
  steals : int;  (** work-counter fetches that found no task left *)
  busy_ns : float;  (** wall-clock spent inside task bodies *)
  idle_ns : float;  (** worker lifetime minus [busy_ns] *)
}

val reset_stats : unit -> unit
(** Zero the cross-call per-domain accumulator. *)

val record_metrics : Metrics.t -> unit
(** Increment [pool.d<i>.tasks] / [pool.d<i>.steals] / [pool.d<i>.busy_ns]
    / [pool.d<i>.idle_ns] counters from the current accumulator, one set
    per worker slot.  Times are truncated to integer nanoseconds.  Note
    these values are wall-clock-dependent: record them into a registry
    that is reported to a human (stderr, bench output), never into one
    embedded in a byte-compared report. *)

val map : jobs:int -> (int -> 'a) -> int -> 'a array
(** [map ~jobs f tasks] evaluates [f] at each index in [[0, tasks)] with up
    to [jobs] workers and returns the results in index order.

    [jobs = 0] means {!default_jobs}; [jobs] larger than [tasks] is clamped;
    [jobs = 1] (or the sequential backend) evaluates [f 0], [f 1], ... in
    order on the calling thread.  [f] must be safe to call concurrently
    from several domains — it must not touch shared mutable state.

    If any [f i] raises, one of the raised exceptions is re-raised here
    after all workers have stopped (workers abandon unstarted tasks once a
    failure is recorded).

    Raises [Invalid_argument] when [tasks < 0] or [jobs < 0]. *)
