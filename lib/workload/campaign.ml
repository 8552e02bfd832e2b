type spec = {
  n : int;
  k : int;
  rate : float;
  messages : int;
  send_omission : float;
  recv_omission : float;
  link_loss : float;
  silenced_per_subrun : int;
  crashes : (int * int) list;
  max_rtd : float;
}

let float_str = Printf.sprintf "%.12g"

let pp_spec ppf spec =
  Format.fprintf ppf
    "@[<h>n=%d k=%d rate=%s messages=%d send=%s recv=%s link=%s silenced=%d \
     crashes=[%a] max_rtd=%s@]"
    spec.n spec.k (float_str spec.rate) spec.messages
    (float_str spec.send_omission)
    (float_str spec.recv_omission)
    (float_str spec.link_loss)
    spec.silenced_per_subrun
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       (fun ppf (node, subrun) -> Format.fprintf ppf "%d@@%d" node subrun))
    spec.crashes
    (float_str spec.max_rtd)

let resilience spec = (spec.n - 1) / 2

(* CLI-facing validation: everything a spec can get wrong, diagnosed in one
   place.  Without this, out-of-range values slipped through silently —
   e.g. a negative --silenced was simply never applied by [fault_of_spec]. *)
let validate_spec spec =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let prob name p =
    if not (p >= 0.0 && p <= 1.0) then
      fail "campaign spec: %s %s is outside [0,1]" name (float_str p)
  in
  if spec.n < 2 then fail "campaign spec: n %d is too small (need >= 2)" spec.n;
  if spec.k < 1 then fail "campaign spec: K %d must be >= 1" spec.k;
  prob "rate" spec.rate;
  if spec.messages < 0 then
    fail "campaign spec: negative message cap %d" spec.messages;
  prob "send-omission" spec.send_omission;
  prob "recv-omission" spec.recv_omission;
  prob "link-loss" spec.link_loss;
  if spec.silenced_per_subrun < 0 || spec.silenced_per_subrun >= spec.n then
    fail "campaign spec: silenced %d is outside [0,%d)" spec.silenced_per_subrun
      spec.n;
  List.iter
    (fun (node, subrun) ->
      if node < 0 || node >= spec.n then
        fail "campaign spec: crash node %d is outside [0,%d)" node spec.n;
      if subrun < 0 then fail "campaign spec: negative crash subrun %d" subrun)
    spec.crashes;
  if not (spec.max_rtd > 0.0) then
    fail "campaign spec: max-rtd %s must be positive" (float_str spec.max_rtd)

let within_budget spec =
  spec.silenced_per_subrun + List.length spec.crashes <= resilience spec

let fault_of_spec spec =
  let base =
    {
      Net.Fault.reliable with
      Net.Fault.send_omission = spec.send_omission;
      recv_omission = spec.recv_omission;
      link_loss = spec.link_loss;
    }
  in
  let base =
    if spec.silenced_per_subrun > 0 then
      Net.Fault.with_subrun_silence ~count:spec.silenced_per_subrun
        ~population:spec.n base
    else base
  in
  Net.Fault.with_crashes
    (List.map
       (fun (node, subrun) ->
         ( Net.Node_id.of_int node,
           Sim.Ticks.of_int ((subrun * Sim.Ticks.per_rtd) + 1) ))
       spec.crashes)
    base

let scenario_of_spec ?(name = "campaign") ~seed spec =
  validate_spec spec;
  let config = Urcgc.Config.make ~k:spec.k ~n:spec.n () in
  let load = Load.make ~rate:spec.rate ~total_messages:spec.messages () in
  Scenario.make ~name ~fault:(fault_of_spec spec) ~seed ~max_rtd:spec.max_rtd
    ~config ~load ()

type outcome = { ok : bool; violations : string list }

let evaluate spec (report : Runner.report) =
  let survivors_exist = spec.n - List.length spec.crashes >= 2 in
  let liveness = ref [] in
  let fail msg = liveness := msg :: !liveness in
  if spec.messages > 0 && spec.rate > 0.0 && report.Runner.generated = 0 then
    fail "progress: no messages generated before the time cap";
  if
    report.Runner.generated > 0 && survivors_exist
    && report.Runner.delivered_remote = 0
  then fail "liveness: nothing was processed at any remote process";
  (* A within-budget run with no fail-stop schedule must drain completely:
     no departure is legitimate, so every generated message reaches all
     n - 1 remote processes before the cap.  Runs that expelled somebody
     (false declarations are possible inside the budget once bursts are a
     sizable fraction of n) are judged on safety only. *)
  if
    within_budget spec && spec.crashes = []
    && report.Runner.departures = []
    && report.Runner.generated > 0
  then begin
    let expected = report.Runner.generated * (spec.n - 1) in
    if report.Runner.delivered_remote <> expected then
      fail
        (Printf.sprintf
           "liveness: incomplete delivery (%d of %d remote processing events)"
           report.Runner.delivered_remote expected)
  end;
  let liveness = List.rev !liveness in
  let verdict = report.Runner.verdict in
  {
    ok = Checker.ok verdict && liveness = [];
    violations = verdict.Checker.violations @ liveness;
  }

let execute ?metrics ?tracer ~seed spec =
  let report = Runner.run ?tracer ?metrics (scenario_of_spec ~seed spec) in
  (evaluate spec report, report)

(* ---- Random configuration generation ---------------------------------- *)

(* The draw order below is part of the determinism contract: a campaign seed
   fully determines the sweep. *)
let generate ?(over_budget = false) rng =
  let n = if over_budget then 5 + Sim.Rng.int rng 11 else 4 + Sim.Rng.int rng 12 in
  let t = (n - 1) / 2 in
  let silenced, k, burst =
    if over_budget then
      (* Strictly beyond the resilience bound, up to silencing all but two
         processes: decisions can fail to circulate. *)
      ( t + 1 + Sim.Rng.int rng (max 1 (n - 1 - (t + 1))),
        2 + Sim.Rng.int rng 3,
        true )
    else if n >= 12 && Sim.Rng.bool rng 0.4 then
      (* Membership accuracy is guarded by K, not by t: a healthy process
         silenced K subruns in a row is falsely declared crashed, with
         probability ~(s/n)^K per window.  Within-budget draws therefore
         keep that expectation negligible (s = 1, K = 4, n >= 12, short
         runs); the --over-budget sweep is where the envelope is probed. *)
      (1, 4, true)
    else (0, 2 + Sim.Rng.int rng 3, false)
  in
  let rate = 0.2 +. Sim.Rng.float rng 0.6 in
  let messages =
    if burst then 30 + Sim.Rng.int rng 30 else 30 + Sim.Rng.int rng 90
  in
  let send_omission, recv_omission =
    if Sim.Rng.bool rng 0.5 then
      let every = 100 + Sim.Rng.int rng 900 in
      let p = 1.0 /. float_of_int every /. 2.0 in
      (p, p)
    else (0.0, 0.0)
  in
  let link_loss = if Sim.Rng.bool rng 0.3 then Sim.Rng.float rng 0.004 else 0.0 in
  let crashes =
    let budget_left = t - silenced in
    if over_budget || budget_left <= 0 || not (Sim.Rng.bool rng 0.4) then []
    else begin
      let count = 1 + Sim.Rng.int rng (min budget_left 2) in
      let ids = Array.init n Fun.id in
      Sim.Rng.shuffle rng ids;
      List.init count (fun i -> (ids.(i), 1 + Sim.Rng.int rng 8))
    end
  in
  let max_rtd = if over_budget then 120.0 else 300.0 in
  {
    n;
    k;
    rate;
    messages;
    send_omission;
    recv_omission;
    link_loss;
    silenced_per_subrun = silenced;
    crashes;
    max_rtd;
  }

(* ---- Shrinking -------------------------------------------------------- *)

type shrunk = {
  shrunk_spec : spec;
  shrunk_violations : string list;
  shrink_steps : int;
}

(* Liveness/progress violations come from {!evaluate} with these prefixes;
   everything else originates in the safety checker. *)
let is_liveness v =
  String.length v >= 9
  &&
  let prefix = String.sub v 0 9 in
  prefix = "liveness:" || prefix = "progress:"

(* Candidate reductions, biggest first.  Reducing n also re-clamps the burst
   size below the new population and drops crashes of removed processes. *)
let candidates spec =
  let with_n n' =
    {
      spec with
      n = n';
      silenced_per_subrun = min spec.silenced_per_subrun (n' - 1);
      crashes = List.filter (fun (node, _) -> node < n') spec.crashes;
    }
  in
  List.concat
    [
      (if spec.messages >= 20 then [ { spec with messages = spec.messages / 2 } ]
       else []);
      (if spec.n >= 6 then [ with_n (spec.n - 2) ] else []);
      List.mapi
        (fun i _ ->
          { spec with crashes = List.filteri (fun j _ -> j <> i) spec.crashes })
        spec.crashes;
      (if spec.send_omission > 0.0 || spec.recv_omission > 0.0 then
         { spec with send_omission = 0.0; recv_omission = 0.0 }
         ::
         (* Zeroing removes the per-packet RNG draws entirely and so shifts
            every later draw; when that perturbation makes the failure
            vanish, halving (which keeps the draw pattern) still shrinks the
            probability — but only down to a floor, past which further
            halvings are meaningless step burn. *)
         (if Float.max spec.send_omission spec.recv_omission > 1e-9 then
            [
              {
                spec with
                send_omission = spec.send_omission /. 2.0;
                recv_omission = spec.recv_omission /. 2.0;
              };
            ]
          else [])
       else []);
      (if spec.link_loss > 0.0 then [ { spec with link_loss = 0.0 } ] else []);
      (if spec.silenced_per_subrun > 0 then
         [ { spec with silenced_per_subrun = spec.silenced_per_subrun - 1 } ]
       else []);
      (if spec.max_rtd > 60.0 then [ { spec with max_rtd = spec.max_rtd /. 2.0 } ]
       else []);
      (if spec.rate > 0.35 then [ { spec with rate = 0.3 } ] else []);
    ]

(* Recorded simulation runs one shrink may spend. *)
let shrink_max_steps = 150

let shrink ?(jobs = 1) ~seed spec outcome =
  let steps = ref 0 in
  (* A reduction is kept only if the run still fails in the same class: a
     safety (checker) failure must not degenerate into a mere liveness
     failure — e.g. halving max_rtd would otherwise turn any healthy run
     into an "incomplete delivery" reproducer of nothing. *)
  let required_safety =
    List.exists (fun v -> not (is_liveness v)) outcome.violations
  in
  (* Shrinking must also preserve the budget class: an over-budget failure
     (silenced + crashes > t) walking below the resilience bound would
     change the claim entirely — "the protocol fails beyond its envelope"
     is not shrinkable into "the protocol fails within it", and vice
     versa.  The class check lives inside [still_fails] so the sequential
     and speculative-parallel paths reject identically. *)
  let original_within = within_budget spec in
  let still_fails candidate =
    if within_budget candidate <> original_within then None
    else
      let outcome, report = execute ~seed candidate in
      let safety_failed = not (Checker.ok report.Runner.verdict) in
      if outcome.ok || (required_safety && not safety_failed) then None
      else Some outcome
  in
  (* Greedy descent to a fixpoint: take the first candidate that still
     fails, restart from it; stop when no reduction preserves the failure
     (or the step budget runs out).

     The parallel path evaluates the whole round's candidate list
     speculatively, then applies the {e sequential} acceptance rule: the
     first-accepting candidate in candidate order wins, and the recorded
     step count is what the sequential scan would have consumed (the
     accepted index + 1, or the full round on a fixpoint).  Candidates a
     sequential shrinker would never have reached — those past the first
     acceptance, or past the step budget — are wasted work, never extra
     recorded steps, so the shrunk spec, violations, and step count are
     identical at any job count. *)
  let rec descend spec violations =
    if !steps >= shrink_max_steps then (spec, violations)
    else begin
      let cands = Array.of_list (candidates spec) in
      let round = min (Array.length cands) (shrink_max_steps - !steps) in
      if round = 0 then (spec, violations)
      else if jobs <= 1 then begin
        (* Sequential fast path: stop evaluating at the first acceptance. *)
        let rec first i =
          if i >= round then begin
            steps := !steps + round;
            (spec, violations)
          end
          else
            match still_fails cands.(i) with
            | Some outcome ->
                steps := !steps + i + 1;
                descend cands.(i) outcome.violations
            | None -> first (i + 1)
        in
        first 0
      end
      else begin
        let results = Sim.Pool.map ~jobs (fun i -> still_fails cands.(i)) round in
        let rec first i =
          if i >= round then None
          else
            match results.(i) with
            | Some outcome -> Some (i, outcome)
            | None -> first (i + 1)
        in
        match first 0 with
        | Some (i, outcome) ->
            steps := !steps + i + 1;
            descend cands.(i) outcome.violations
        | None ->
            steps := !steps + round;
            (spec, violations)
      end
    end
  in
  let shrunk_spec, shrunk_violations = descend spec outcome.violations in
  { shrunk_spec; shrunk_violations; shrink_steps = !steps }

(* ---- Campaign driver -------------------------------------------------- *)

type run = {
  index : int;
  seed : int;
  spec : spec;
  outcome : outcome;
  generated : int;
  delivered_remote : int;
  subruns : int;
  mean_delay_rtd : float;
  shrunk : shrunk option;
  metrics : string option;
  analysis : string option;
  oracle_agrees : bool option;
}

type t = {
  campaign_seed : int;
  budget : int;
  over_budget : bool;
  runs : run list;
  failed : int;
}

let repro_command ~seed spec =
  let buf = Buffer.create 128 in
  Printf.bprintf buf
    "urcgc_sim replay -n %d -K %d --rate %s --messages %d --silenced %d \
     --max-rtd %s --seed %d"
    spec.n spec.k (float_str spec.rate) spec.messages spec.silenced_per_subrun
    (float_str spec.max_rtd) seed;
  if spec.send_omission > 0.0 then
    Printf.bprintf buf " --send-omission %s" (float_str spec.send_omission);
  if spec.recv_omission > 0.0 then
    Printf.bprintf buf " --recv-omission %s" (float_str spec.recv_omission);
  if spec.link_loss > 0.0 then
    Printf.bprintf buf " --link-loss %s" (float_str spec.link_loss);
  List.iter
    (fun (node, subrun) -> Printf.bprintf buf " --crash %d@%d" node subrun)
    spec.crashes;
  Buffer.contents buf

let run ?(over_budget = false) ?(shrink_failures = true) ?(with_metrics = false)
    ?(with_analysis = false) ?(jobs = 1) ~budget ~seed () =
  if budget < 0 then invalid_arg "Campaign.run: negative budget";
  if jobs < 0 then invalid_arg "Campaign.run: negative job count";
  (* The span profiler is one global tree: worker domains would race on it.
     Profiled campaigns therefore run sequentially — the cost attribution
     is per-phase, not per-core, so nothing is lost but wall-clock. *)
  let jobs = if Sim.Prof.enabled () then 1 else jobs in
  (* Phase 1 — sequential spec generation.  The single [generate] stream is
     part of the determinism contract: spec [i] must be the [i]-th draw from
     the campaign seed's splitmix64 stream no matter how many workers later
     execute the runs, so this pass never moves into the parallel region. *)
  let rng = Sim.Rng.create ~seed in
  let specs =
    Sim.Prof.span "campaign.gen" @@ fun () ->
    if budget = 0 then [||]
    else begin
      let first = generate ~over_budget rng in
      let specs = Array.make budget first in
      for index = 1 to budget - 1 do
        specs.(index) <- generate ~over_budget rng
      done;
      specs
    end
  in
  (* Phase 2 — parallel execution.  Each run is a pure function of its
     derived seed and owns every piece of mutable state it touches (engine,
     RNG, fault process, tracer, metrics registry — all created inside the
     worker), so results merged back in index order are byte-identical to a
     sequential sweep at any job count. *)
  let executed =
    Sim.Prof.span "campaign.run" @@ fun () ->
    Sim.Pool.map ~jobs
      (fun index ->
        if !Sim.Prof.on then Sim.Prof.enter "run";
        let spec = specs.(index) in
        let run_seed = Sim.Rng.derive ~seed index in
        (* A fresh registry per run, read out before the record is built —
           shrinking runs reuse [execute] without it, so the recorded
           metrics describe exactly this run. *)
        let metrics =
          if with_metrics then Sim.Metrics.create () else Sim.Metrics.null
        in
        let tracer = if with_analysis then Some (Sim.Trace.unbounded ()) else None in
        let outcome, report = execute ~metrics ?tracer ~seed:run_seed spec in
        let analysis =
          Option.map
            (fun t -> Sim.Analysis.analyze ~n:spec.n (Sim.Trace.records t))
            tracer
        in
        let result = {
          index;
          seed = run_seed;
          spec;
          outcome;
          generated = report.Runner.generated;
          delivered_remote = report.Runner.delivered_remote;
          subruns = report.Runner.subruns;
          mean_delay_rtd = Runner.mean_delay_rtd report;
          shrunk = None;
          metrics =
            (if with_metrics then Some (Sim.Metrics.to_json metrics) else None);
          analysis = Option.map Sim.Analysis.report_json analysis;
          oracle_agrees =
            Option.map
              (fun a ->
                Analyzer.agrees report.Runner.verdict a.Sim.Analysis.verdict)
              analysis;
        } in
        if !Sim.Prof.on then Sim.Prof.exit ();
        result)
      budget
  in
  (* Phase 3 — shrink failures in index order.  Kept outside the parallel
     region so worker domains never nest; the parallelism inside a shrink
     is the speculative per-round candidate evaluation in {!shrink}. *)
  let runs =
    Sim.Prof.span "campaign.shrink" @@ fun () ->
    Array.to_list executed
    |> List.map (fun r ->
           if r.outcome.ok || not shrink_failures then r
           else { r with shrunk = Some (shrink ~jobs ~seed:r.seed r.spec r.outcome) })
  in
  let failed = List.length (List.filter (fun r -> not r.outcome.ok) runs) in
  { campaign_seed = seed; budget; over_budget; runs; failed }

(* ---- JSON report ------------------------------------------------------ *)

let buf_spec buf spec =
  Printf.bprintf buf
    "{\"n\":%d,\"k\":%d,\"rate\":%s,\"messages\":%d,\"send_omission\":%s,\"recv_omission\":%s,\"link_loss\":%s,\"silenced_per_subrun\":%d,\"crashes\":["
    spec.n spec.k (float_str spec.rate) spec.messages
    (float_str spec.send_omission)
    (float_str spec.recv_omission)
    (float_str spec.link_loss)
    spec.silenced_per_subrun;
  List.iteri
    (fun i (node, subrun) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "[%d,%d]" node subrun)
    spec.crashes;
  Printf.bprintf buf "],\"max_rtd\":%s}" (float_str spec.max_rtd)

let buf_run buf r =
  Printf.bprintf buf "{\"index\":%d,\"seed\":%d,\"spec\":" r.index r.seed;
  buf_spec buf r.spec;
  Printf.bprintf buf ",\"fault\":%s"
    (Net.Fault.json_of_spec (fault_of_spec r.spec));
  Printf.bprintf buf
    ",\"generated\":%d,\"delivered_remote\":%d,\"subruns\":%d,\"mean_delay_rtd\":%s,\"verdict\":\"%s\""
    r.generated r.delivered_remote r.subruns
    (float_str r.mean_delay_rtd)
    (if r.outcome.ok then "ok" else "fail");
  if not r.outcome.ok then begin
    Buffer.add_string buf ",\"violations\":";
    Sim.Json.buf_string_list buf r.outcome.violations;
    Buffer.add_string buf ",\"repro\":";
    Sim.Json.buf_string buf (repro_command ~seed:r.seed r.spec)
  end;
  (match r.shrunk with
  | None -> ()
  | Some s ->
      Buffer.add_string buf ",\"shrunk\":{\"spec\":";
      buf_spec buf s.shrunk_spec;
      Buffer.add_string buf ",\"violations\":";
      Sim.Json.buf_string_list buf s.shrunk_violations;
      Printf.bprintf buf ",\"steps\":%d,\"repro\":" s.shrink_steps;
      Sim.Json.buf_string buf (repro_command ~seed:r.seed s.shrunk_spec);
      Buffer.add_char buf '}');
  (match r.metrics with
  | None -> ()
  | Some json -> Printf.bprintf buf ",\"metrics\":%s" json);
  (match r.oracle_agrees with
  | None -> ()
  | Some agrees -> Printf.bprintf buf ",\"oracle_agrees\":%b" agrees);
  (match r.analysis with
  | None -> ()
  | Some json -> Printf.bprintf buf ",\"analysis\":%s" json);
  Buffer.add_char buf '}'

let to_json t =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\"campaign\":{\"seed\":%d,\"budget\":%d,\"over_budget\":%b},\"runs\":["
    t.campaign_seed t.budget t.over_budget;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      buf_run buf r)
    t.runs;
  Printf.bprintf buf "],\"summary\":{\"runs\":%d,\"ok\":%d,\"failed\":%d}}"
    t.budget (t.budget - t.failed) t.failed;
  Buffer.contents buf

(* ---- Human summary ---------------------------------------------------- *)

let summary_table t =
  let table =
    Stats.Table.create
      ~columns:
        [
          ("outcome", Stats.Table.Left);
          ("runs", Stats.Table.Right);
          ("share", Stats.Table.Right);
        ]
  in
  let share count =
    if t.budget = 0 then Stats.Table.cell_pct 0.0
    else Stats.Table.cell_pct (float_of_int count /. float_of_int t.budget)
  in
  Stats.Table.add_row table
    [ "ok"; Stats.Table.cell_int (t.budget - t.failed); share (t.budget - t.failed) ];
  Stats.Table.add_row table
    [ "failed"; Stats.Table.cell_int t.failed; share t.failed ];
  table

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>campaign seed=%d budget=%d%s: %d ok, %d failed@,%a"
    t.campaign_seed t.budget
    (if t.over_budget then " (bursts forced over the t budget)" else "")
    (t.budget - t.failed) t.failed Stats.Table.pp (summary_table t);
  List.iter
    (fun r ->
      if not r.outcome.ok then begin
        Format.fprintf ppf "@,run %d (seed %d): %a" r.index r.seed pp_spec
          r.spec;
        List.iter
          (fun v -> Format.fprintf ppf "@,  violation: %s" v)
          r.outcome.violations;
        match r.shrunk with
        | None -> ()
        | Some s ->
            Format.fprintf ppf "@,  shrunk (%d runs): %a@,  repro: %s"
              s.shrink_steps pp_spec s.shrunk_spec
              (repro_command ~seed:r.seed s.shrunk_spec)
      end)
    t.runs;
  Format.fprintf ppf "@]"
