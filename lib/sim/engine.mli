(** Discrete-event simulation engine.

    Callbacks are executed in nondecreasing time order; events scheduled for
    the same instant run in the order they were scheduled, which makes runs
    deterministic.

    An event is either a closure ({!schedule}), which can be cancelled, or
    a typed event ({!post}): a registered {!kind} and an int argument.  A
    typed event is an entry of ints in the queue and allocates nothing; it
    is the form for per-packet events, while closures serve round ticks,
    retries, timers and tests.  Both forms share one (time, scheduling
    order) sequence. *)

type t

type handle
(** A scheduled event that can be cancelled before it fires. *)

val create : unit -> t

val now : t -> Ticks.t

val pending : t -> int
(** Number of events still queued (including cancelled ones not yet popped). *)

val schedule : ?label:string -> t -> at:Ticks.t -> (unit -> unit) -> handle
(** Raises [Invalid_argument] if [at] is in the past.  [label] (default
    ["event"]) names the event class for profiling: when [Prof] is
    enabled, {!step} runs the callback inside a span of that name, so
    dispatch cost is attributed per event class.  Labels do not affect
    scheduling order or any simulation output. *)

val schedule_after : ?label:string -> t -> delay:Ticks.t -> (unit -> unit) -> handle

val cancel : handle -> unit
(** Cancelling an already-fired or cancelled event is a no-op. *)

type kind
(** A class of typed events of one engine: a handler and a profiling
    label, registered once. *)

val register : t -> label:string -> (int -> unit) -> kind
(** [register t ~label handler] makes a kind whose events run
    [handler arg], inside a span named [label] when [Prof] is enabled.
    Raises [Invalid_argument] beyond 1023 kinds per engine. *)

val post : t -> kind -> at:Ticks.t -> int -> unit
(** [post t kind ~at arg] queues a typed event.  It cannot be cancelled.
    Raises [Invalid_argument] if [at] is in the past, if [kind] belongs to
    another engine, or if [arg] is negative or above [max_int lsr 10]. *)

val post_after : t -> kind -> delay:Ticks.t -> int -> unit

val step : t -> bool
(** Runs the next event.  Returns [false] when the queue is empty. *)

val run : ?until:Ticks.t -> t -> unit
(** Runs events until the queue empties, or past [until] (events strictly
    later than [until] stay queued and the clock advances to [until]). *)

val stop : t -> unit
(** Makes the current [run] return after the executing event completes. *)
