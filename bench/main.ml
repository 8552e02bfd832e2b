(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Section 6).

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig4    # one experiment
     dune exec bench/main.exe -- fig5 table1 fig6a fig6b micro
*)

(* Options consumed by the baseline-tracked experiments `hotpath`,
   `campaign-throughput` and `profile-overhead` (ignored by the others):
   --quick, --out FILE, --check FILE. *)
type baseline_opts = {
  mutable quick : bool;
  mutable out : string option;
  mutable check : string option;
  mutable profile : string option;
}

let baseline_opts = { quick = false; out = None; check = None; profile = None }

let run_hotpath () =
  Hotpath.run ~quick:baseline_opts.quick ?out:baseline_opts.out
    ?check:baseline_opts.check ?profile:baseline_opts.profile ()

let run_campaign_throughput () =
  Campaign_throughput.run ~quick:baseline_opts.quick ?out:baseline_opts.out
    ?check:baseline_opts.check ()

let run_profile_overhead () =
  Profile_overhead.run ~quick:baseline_opts.quick ?out:baseline_opts.out
    ?check:baseline_opts.check ()

let experiments =
  [
    ("fig4", "Figure 4: mean end-to-end delay vs offered load", Fig4.run);
    ("fig5", "Figure 5: recovery time vs coordinator crashes", Fig5.run);
    ("table1", "Table 1: control message count and size", Table1.run);
    ("fig6a", "Figure 6a: history length vs time", Fig6.run_a_only);
    ("fig6b", "Figure 6b: history under flow control", Fig6.run_b_only);
    ("ablation", "Ablations: transport mounting, causal-label density", Ablation.run);
    ("ordering", "Total (urgc) vs causal (urcgc) ordering service", Ordering.run);
    ("resilience", "Resilience sweep across the t=(n-1)/2 budget", Resilience.run);
    ("timing", "Latency sweep across the round-synchrony boundary", Timing.run);
    ("scale", "Control-plane cost vs group size", Scale.run);
    ("service", "Service-rate ceiling: one message per process per round", Service.run);
    ("campaign", "Randomized fault campaign within and beyond the t budget", Campaign.run);
    ("analysis", "Offline trace analysis of a representative faulty run", Analysis.run);
    ("micro", "Bechamel micro-benchmarks", Micro.run);
    ("hotpath", "Hot-path benchmarks with tracked JSON baseline", run_hotpath);
    ( "campaign-throughput",
      "Campaign runs/sec at -j 1/2/4/8 with tracked JSON baseline",
      run_campaign_throughput );
    ( "profile-overhead",
      "Sim.Prof probe cost on the subrun hot path, off and on",
      run_profile_overhead );
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let args = List.filter (fun a -> a <> "--") args in
  let rec strip_opts = function
    | [] -> []
    | "--quick" :: rest ->
        baseline_opts.quick <- true;
        strip_opts rest
    | "--out" :: path :: rest ->
        baseline_opts.out <- Some path;
        strip_opts rest
    | "--check" :: path :: rest ->
        baseline_opts.check <- Some path;
        strip_opts rest
    | "--profile" :: path :: rest ->
        baseline_opts.profile <- Some path;
        strip_opts rest
    | arg :: rest -> arg :: strip_opts rest
  in
  let args = strip_opts args in
  match args with
  | [] ->
      (* Full sweep: fig6 a) and b) share the expensive faulty runs. *)
      Fig4.run ();
      Fig5.run ();
      Table1.run ();
      Fig6.run ();
      Ablation.run ();
      Ordering.run ();
      Resilience.run ();
      Timing.run ();
      Scale.run ();
      Service.run ();
      Campaign.run ();
      Analysis.run ();
      Micro.run ();
      run_hotpath ();
      run_campaign_throughput ()
  | names ->
      List.iter
        (fun name ->
          match List.find_opt (fun (key, _, _) -> key = name) experiments with
          | Some (_, _, run) -> run ()
          | None ->
              Format.eprintf "unknown experiment %S; available:@." name;
              List.iter
                (fun (key, doc, _) -> Format.eprintf "  %-8s %s@." key doc)
                experiments;
              exit 2)
        names
