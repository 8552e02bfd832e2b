(** Discrete-event simulation engine.

    Events run in nondecreasing time order; events queued for the same
    instant run in the order they were posted, which makes runs
    deterministic.

    An event is a registered {!kind} and an int argument.  A caller
    registers one kind per event class (a packet delivery, a round tick, a
    retry), once per engine, and posts each occurrence with the int that
    tells its handler what to act on: a slot, an id, a node.  A queued event
    is an entry of ints in a {!Heap.t}, so posting and running one allocates
    nothing. *)

type t

val create : unit -> t

val now : t -> Ticks.t

val pending : t -> int
(** Number of events still queued. *)

type kind
(** A class of events of one engine: a handler and a profiling label,
    registered once. *)

val register : t -> label:string -> (int -> unit) -> kind
(** [register t ~label handler] makes a kind whose events run
    [handler arg].  [label] names the event class for profiling: when
    [Prof] is enabled, {!step} runs the handler inside a span of that name,
    so dispatch cost is attributed per event class.  Labels do not affect
    event order or any simulation output.  Raises [Invalid_argument] beyond
    1024 kinds per engine. *)

val post : t -> kind -> at:Ticks.t -> int -> unit
(** [post t kind ~at arg] queues an event.  Raises [Invalid_argument] if
    [at] is in the past, if [kind] belongs to another engine, or if [arg]
    is negative or above [max_int lsr 10]. *)

val post_after : t -> kind -> delay:Ticks.t -> int -> unit

val step : t -> bool
(** Runs the next event.  Returns [false] when the queue is empty. *)

val run : ?until:Ticks.t -> t -> unit
(** Runs events until the queue empties, or past [until] (events strictly
    later than [until] stay queued and the clock advances to [until]). *)
