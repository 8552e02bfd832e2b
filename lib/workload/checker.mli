(** Post-run verification of the URCGC correctness clauses (Definition 3.2).

    The checker replays the recorded processing events and verifies:
    - {b causal ordering}: at every process, every processed message was
      processable at the moment it was processed (its origin chain was
      gap-free and all explicit dependencies already processed);
    - {b uniform atomicity} among survivors: all processes active at the end
      of the run processed exactly the same set of messages;
    - {b no zombie processing}: a message discarded by group agreement was
      never processed by a surviving process, and no process processed
      anything at a tick strictly after it left the group;
    - {b view agreement}: all surviving processes hold the same group view
      (Section 4, assumption 4);
    - {b primary partition}: no member departed with reason
      {!Urcgc.Member.Partitioned}.  Such a departure means a member's
      adopted view degenerated to itself alone, i.e. the group lost its
      primary partition — impossible within the fault budget
      (silenced + crashed <= t) and therefore the detectable liveness
      signature of beyond-budget fault load.

    The first two ({!check_causal}, {!check_atomicity}) read only a
    {!Run_log.processing} log: the CBCAST and Psync runners call them too. *)

type verdict = {
  causal_ok : bool;
  atomicity_ok : bool;
      (** survivors processed the same message sets (set equality only; the
          zombie and view clauses report separately below) *)
  zombie_ok : bool;
  views_ok : bool;
  partition_ok : bool;
  violations : string list;  (** human-readable description of each failure *)
}

val ok : verdict -> bool
(** All five clauses hold.  The clauses are separate fields so the
    trace-level oracle ({!Sim.Analysis}) can be cross-validated bit by bit:
    it can witness causality, atomicity, zombie processing, and partition
    departures from events alone, but not view agreement (per-node view
    state is never traced). *)

val check : 'a Urcgc.Cluster.t -> verdict

val check_log : 'a Urcgc.Cluster.t -> 'a Run_log.processing list -> verdict
(** {!check} given the cluster's processing log, already read. *)

val check_causal :
  n:int -> 'a Run_log.processing list -> violations:string list ref -> bool
(** Replays the log through a {!Causal.Delivery} tracker per node: each
    event whose message was not processable there (a chain gap, a missing
    dependency, a repeat) fails and prepends a line to [violations]. *)

val check_atomicity :
  survivors:Net.Node_id.t list ->
  'a Run_log.processing list ->
  violations:string list ref ->
  bool
(** Every survivor processed the same mids as the first; each that did
    not prepends a line to [violations]. *)

val pp : Format.formatter -> verdict -> unit
