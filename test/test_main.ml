(* Alcotest pads the suite column to the longest suite name (26 characters)
   and cuts test names to fit 80 columns, so renaming or removing the
   longest suite changes how every long test name prints. *)
let () =
  Alcotest.run "urcgc-repro"
    (Suite_sim.suite @ Suite_net.suite @ Suite_causal.suite @ Suite_urcgc.suite @ Suite_urcgc2.suite @ Suite_urgc.suite
    @ Suite_cbcast.suite @ Suite_baselines2.suite @ Suite_psync.suite @ Suite_stats.suite
    @ Suite_pool.suite @ Suite_workload.suite @ Suite_props.suite @ Suite_codec.suite @ Suite_cb_codec.suite @ Suite_ps_codec.suite @ Suite_tw_codec.suite @ Suite_codec_boundary.suite @ Suite_small_groups.suite @ Suite_fragmentation.suite @ Suite_determinism.suite @ Suite_stress.suite @ Suite_groups.suite @ Suite_edge.suite @ Suite_resilience.suite @ Suite_campaign.suite @ Suite_trace.suite @ Suite_analysis.suite @ Suite_cli.suite @ Suite_fuzz.suite @ Suite_hotpath.suite @ Suite_explore.suite @ Suite_prof.suite @ Suite_group.suite)
