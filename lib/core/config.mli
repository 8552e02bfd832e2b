(** Protocol parameters of the urcgc algorithm.

    - [n]: group cardinality.
    - [k]: the paper's K — a process has K subruns (retries) to deliver its
      view to K rotating coordinators before being declared crashed; a
      process that receives nothing for too long leaves autonomously.
    - [r]: the paper's R — unsuccessful recovery attempts before a process
      autonomously leaves the group.  Must satisfy [R > 2K + f] for the
      expected amount of coordinator crashes [f].
    - [flow_threshold]: local history length at which a process stops
      generating new messages ([8n] in the paper's simulations); [None]
      disables flow control.
    - [silence_limit]: consecutive subruns without receiving any coordinator
      decision after which a process autonomously leaves.  The paper says "K
      consecutive coordinators", counting coordinators that actually
      produced a decision; a deaf process cannot distinguish those from
      crashed coordinators, so the default is the conservative [2K]. *)

type t = private {
  n : int;
  k : int;
  r : int;
  flow_threshold : int option;
  silence_limit : int;
}

val default_payload_size : int
(** 64: the user payload size in bytes of a [Member.submit] without
    [~size]. *)

val make :
  ?k:int ->
  ?r:int ->
  ?flow_threshold:int option ->
  ?silence_limit:int ->
  n:int ->
  unit ->
  t
(** Defaults: [k = 3], [r = 2k + 4], [flow_threshold = None],
    [silence_limit = 2k].  Raises [Invalid_argument] on non-positive [n],
    [k], [r] or [silence_limit], on [r <= k], and on a non-positive flow
    threshold. *)

val resilience : t -> int
(** The paper's resilience degree [t = (n-1)/2]: the highest number of
    allowed failures per subrun that still guarantees decision circulation. *)
