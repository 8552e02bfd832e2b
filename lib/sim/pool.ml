let available = Pool_backend.available

let default_jobs () = Pool_backend.default_jobs ()

type domain_stat = Pool_backend.domain_stat = {
  tasks : int;
  steals : int;
  busy_ns : float;
  idle_ns : float;
}

(* Cross-call accumulator, indexed by worker slot (0 = calling domain).
   Workers write their private slot and the caller folds the array in
   after every join, so accumulation itself runs single-domain. *)
let acc : domain_stat array ref = ref [||]

let zero = { tasks = 0; steals = 0; busy_ns = 0.; idle_ns = 0. }

let reset_stats () = acc := [||]

let absorb per_call =
  let wanted = max (Array.length !acc) (Array.length per_call) in
  if Array.length !acc < wanted then begin
    let grown = Array.make wanted zero in
    Array.blit !acc 0 grown 0 (Array.length !acc);
    acc := grown
  end;
  Array.iteri
    (fun i (s : domain_stat) ->
      let a = !acc.(i) in
      !acc.(i) <-
        {
          tasks = a.tasks + s.tasks;
          steals = a.steals + s.steals;
          busy_ns = a.busy_ns +. s.busy_ns;
          idle_ns = a.idle_ns +. s.idle_ns;
        })
    per_call

let record_metrics m =
  Array.iteri
    (fun i (s : domain_stat) ->
      let name suffix = Printf.sprintf "pool.d%d.%s" i suffix in
      Metrics.incr ~by:s.tasks m (name "tasks");
      Metrics.incr ~by:s.steals m (name "steals");
      Metrics.incr ~by:(int_of_float s.busy_ns) m (name "busy_ns");
      Metrics.incr ~by:(int_of_float s.idle_ns) m (name "idle_ns"))
    !acc

let map ~jobs f tasks =
  if tasks < 0 then invalid_arg "Pool.map: negative task count";
  if jobs < 0 then invalid_arg "Pool.map: negative job count";
  let jobs = if jobs = 0 then default_jobs () else jobs in
  let jobs = min jobs (max tasks 1) in
  if tasks = 0 then [||]
  else if jobs <= 1 then begin
    (* In-order on the calling thread: no domain spawn cost, and the
       evaluation order matches what a plain loop would do. *)
    let t0 = Unix.gettimeofday () in
    let first = f 0 in
    let results = Array.make tasks first in
    for i = 1 to tasks - 1 do
      results.(i) <- f i
    done;
    let busy = (Unix.gettimeofday () -. t0) *. 1e9 in
    absorb [| { tasks; steals = 0; busy_ns = busy; idle_ns = 0. } |];
    results
  end
  else begin
    let results, per_call = Pool_backend.map ~jobs f tasks in
    absorb per_call;
    results
  end
