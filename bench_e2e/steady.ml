(* Steady windows: a warm cluster under constant offered load.

   Each repetition builds the stack, runs untimed warm-up subruns, times
   the window one subrun ([Engine.run ~until:+1 rtd]) at a time, stops
   injecting and drains to quiescence (at most 200 subruns), then reduces
   and judges.  Runs are closed-loop in wall-clock time (a subrun starts
   when the previous one returns) and open-loop in simulated time (each
   member submits with probability [rate] every round whatever its
   backlog). *)

type t = {
  shape : Stack.shape;
  warm : int;  (** untimed warm-up subruns *)
  window : int;  (** timed subruns *)
}

let drain_cap = 200

type rep = {
  summary : Stack.summary;
  drained : bool;
  slowdown : float;  (** host slowdown over the repetition ([Probe.slowdown]) *)
  rep_ns : int;  (** build + warm-up + window + drain + reduce *)
  setup_ns : int;  (** build + warm-up: the set-up before the window *)
  window_ns : int;
  window_remote : int;
  window_words : int;
  window_promoted : int;
  major_collections : int;
  subrun_ns : int array;
  retained_words : int;
  traffic : Split.counts;  (** window traffic, with remote and subruns *)
  discarded : int;
  round_handlers : int;
  samples : Stack.samples;
}

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Untraced repetitions time the calibration loop after every warm-up and
   window subrun; those samples give the repetition's [slowdown], and their
   time is left out of every duration. *)
let run_rep ?(retain = false) w ~traced ~seed =
  let live0 = live_words () in
  let calibrate () = if not traced then Probe.speed_sample () in
  Probe.speed_reset ();
  let start = Probe.now_ns () in
  let st = Stack.build ~traced ~seed w.shape in
  for i = 1 to w.warm do
    Stack.advance st (i * Stack.rtd);
    calibrate ()
  done;
  let setup_ns = Probe.now_ns () - start - !Probe.speed_total_ns in
  let traffic0 = Split.traffic_counts ~codec:w.shape.codec st.Stack.net in
  let majors0 = Probe.major_collections () in
  let promoted0 = Probe.promoted_words () in
  let words0 = Probe.words () in
  let subrun_ns = Array.make w.window 0 in
  Stack.on := traced;
  if traced then Probe.enter Probe.window;
  for i = 1 to w.window do
    let s0 = Probe.now_ns () in
    if traced then Probe.enter Probe.subrun;
    Stack.advance st ((w.warm + i) * Stack.rtd);
    if traced then Probe.exit ();
    subrun_ns.(i - 1) <- Probe.now_ns () - s0;
    calibrate ()
  done;
  if traced then Probe.exit ();
  Stack.on := false;
  let words1 = Probe.words () in
  let promoted1 = Probe.promoted_words () in
  let majors1 = Probe.major_collections () in
  let traffic1 = Split.traffic_counts ~codec:w.shape.codec st.Stack.net in
  (* The retained-heap reading (traced pairs only) is the bench's, not the
     run's: its full major collection is left out of the repetition's
     time. *)
  let g0 = Probe.now_ns () in
  let retained_words = if retain then live_words () - live0 else 0 in
  let gc_ns = Probe.now_ns () - g0 in
  let drained = Stack.drain st ~cap:drain_cap in
  Stack.on := traced;
  let summary = Stack.reduce st in
  Stack.on := false;
  let rep_ns = Probe.now_ns () - start - gc_ns - !Probe.speed_total_ns in
  let window_remote =
    Stack.remote_between summary ~lo:(w.warm * Stack.rtd)
      ~hi:((w.warm + w.window) * Stack.rtd)
  in
  {
    summary;
    drained;
    slowdown = Probe.slowdown ();
    rep_ns;
    setup_ns;
    window_ns = Array.fold_left ( + ) 0 subrun_ns;
    window_remote;
    window_words = words1 - words0;
    window_promoted = promoted1 - promoted0;
    major_collections = majors1 - majors0;
    subrun_ns;
    retained_words;
    traffic =
      {
        (Split.diff traffic1 traffic0) with
        remote = window_remote;
        subruns = w.window;
      };
    discarded = Stack.discarded st;
    round_handlers = st.Stack.round_handlers;
    samples = st.Stack.samples;
  }

(* Every repetition must drain and pass the checker. *)
let judge r ~seed rep =
  let ok =
    rep.drained && Workload.Checker.ok rep.summary.Stack.verdict
  in
  Report.attempt r ~units:1 ~failed:(if ok then 0 else 1);
  Report.gate r rep.drained "seed %d: not quiescent after %d drain subruns" seed
    drain_cap;
  Report.gate r
    (Workload.Checker.ok rep.summary.Stack.verdict)
    "seed %d: checker: %s" seed
    (String.concat "; " rep.summary.Stack.verdict.Workload.Checker.violations);
  Report.gate r (rep.window_remote > 0) "seed %d: nothing delivered in the window"
    seed

let untraced w r ~seed ~seconds =
  let reps =
    Report.repeat ~seconds (fun i ->
        let rep = run_rep w ~traced:false ~seed:(seed + i) in
        judge r ~seed:(seed + i) rep;
        rep)
  in
  let med f = Report.median (List.map f reps) in
  let seconds ns rep = Report.reference_s ns ~slowdown:rep.slowdown in
  Report.set r "setup_s" (med (fun rep -> seconds rep.setup_ns rep));
  Report.set r "deliveries_per_s"
    (med (fun rep ->
         Report.ratio (float_of_int rep.window_remote) (seconds rep.window_ns rep)));
  Report.set r "runs_per_s" (med (fun rep -> Report.ratio 1.0 (seconds rep.rep_ns rep)));
  Report.note_slowdown
    (List.map (fun rep -> rep.slowdown) reps)
    ~wall_deliveries_per_s:
      (List.map (fun rep -> Report.per_s rep.window_remote rep.window_ns) reps);
  Report.set r "alloc_words_per_delivery"
    (med (fun rep -> Report.ratio_i rep.window_words rep.window_remote));
  Report.set r "promoted_words_per_delivery"
    (med (fun rep -> Report.ratio_i rep.window_promoted rep.window_remote))

(* Pairs of an untraced and a traced repetition on the same seed: the
   traced one must reproduce the untraced one exactly, and the difference
   of their windows is the tracing overhead. *)
let traced w r ~seed ~seconds =
  Stack.traced_setup (fun i ->
      Stack.build ~traced:true ~seed:(seed + i) w.shape);
  Split.set_setup r;
  let pairs =
    Report.repeat ~min:1 ~seconds (fun i ->
        let seed = seed + i in
        let plain = run_rep ~retain:true w ~traced:false ~seed in
        judge r ~seed plain;
        Probe.run_id := i;
        let rep = run_rep w ~traced:true ~seed in
        judge r ~seed rep;
        Report.gate r
          (Stack.same_run plain.summary rep.summary)
          "seed %d: the traced run differs from the untraced one" seed;
        Report.gate r (rep.round_handlers = 0)
          "seed %d: %d handlers ran inside round events" seed rep.round_handlers;
        (plain, rep))
  in
  let plains = List.map fst pairs and reps = List.map snd pairs in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let untraced_ns = sum (fun p -> p.window_ns) plains in
  ignore
    (Split.set r
       (List.fold_left (fun acc rep -> Split.add acc rep.traffic) Split.zero_counts reps)
       ~untraced_ns:(Some (float_of_int untraced_ns)));
  let samples = (List.hd reps).samples in
  List.iter (fun rep -> Split.add_samples samples rep.samples) (List.tl reps);
  Split.set_samples r samples
    ~discarded:(sum (fun rep -> rep.discarded) reps)
    ~subruns:(sum (fun rep -> rep.summary.Stack.subruns) reps);
  Split.set_reduce r ~runs:(List.length reps)
    ~remote:(sum (fun rep -> rep.summary.Stack.delivered_remote) reps);
  let subrun_ms =
    List.concat_map
      (fun p -> Array.to_list (Array.map (fun ns -> float_of_int ns /. 1e6) p.subrun_ns))
      plains
  in
  Report.set r "engine.subrun_ms_p50" (Report.percentile subrun_ms 0.50);
  Report.set r "engine.subrun_ms_p99" (Report.percentile subrun_ms 0.99);
  Report.set r "gc.major_collections_per_ksubrun"
    (1e3 *. Report.ratio_i (sum (fun p -> p.major_collections) plains)
              (w.window * List.length plains));
  Report.set r "mem.retained_mb"
    (Report.median
       (List.map (fun p -> Report.mb p.retained_words) plains));
  let delay f = Report.median (List.map (fun rep -> f rep.summary.Stack.delay) reps) in
  Report.set r "sim.delay_p50_rtd" (delay (fun d -> d.Stats.Summary.p50));
  Report.set r "sim.delay_p99_rtd" (delay (fun d -> d.Stats.Summary.p99));
  Report.set r "trace.overhead_share"
    (Report.ratio_i (sum (fun rep -> rep.window_ns) reps) untraced_ns -. 1.0)

let run w r ~seed ~seconds ~trace =
  (* One discarded warm-up repetition on [seed]; repetition i uses
     [seed + i]. *)
  judge r ~seed (run_rep w ~traced:false ~seed);
  if trace then traced w r ~seed ~seconds else untraced w r ~seed ~seconds
