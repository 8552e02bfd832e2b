(* The per-layer split of the traced simulation time.

   Every span's self time is charged to one layer; what the probes do not
   cover (heap pops, the netsim delivery loop, fault draws on receive, the
   bench's own loop) is the self time of the [deliver]/[subrun]/[window]
   spans and goes to [engine].  The layers therefore sum to the traced
   simulation time minus the probes' own cost. *)

type counts = {
  codec : bool;
  remote : int;  (** remote processing events in the traced simulation *)
  subruns : int;
  copies : int;  (** packet copies offered to the network *)
  bytes : int;
  control_bytes : int;
  recovery_copies : int;
  drops : int;
}

let zero_counts =
  {
    codec = false;
    remote = 0;
    subruns = 0;
    copies = 0;
    bytes = 0;
    control_bytes = 0;
    recovery_copies = 0;
    drops = 0;
  }

let add a b =
  {
    codec = a.codec || b.codec;
    remote = a.remote + b.remote;
    subruns = a.subruns + b.subruns;
    copies = a.copies + b.copies;
    bytes = a.bytes + b.bytes;
    control_bytes = a.control_bytes + b.control_bytes;
    recovery_copies = a.recovery_copies + b.recovery_copies;
    drops = a.drops + b.drops;
  }

(* The traffic [net] has accounted so far; [diff] two snapshots for a
   phase. *)
let traffic_counts ~codec net =
  let traffic = Net.Netsim.traffic net in
  {
    codec;
    remote = 0;
    subruns = 0;
    copies = Net.Traffic.total_count traffic;
    bytes = Net.Traffic.total_bytes traffic;
    control_bytes = Net.Traffic.bytes traffic Net.Traffic.Control;
    recovery_copies = Net.Traffic.count traffic Net.Traffic.Recovery;
    drops = Net.Netsim.dropped_count net;
  }

let diff a b =
  {
    codec = a.codec;
    remote = a.remote - b.remote;
    subruns = a.subruns - b.subruns;
    copies = a.copies - b.copies;
    bytes = a.bytes - b.bytes;
    control_bytes = a.control_bytes - b.control_bytes;
    recovery_copies = a.recovery_copies - b.recovery_copies;
    drops = a.drops - b.drops;
  }

(* Sets the engine/net/codec/member/load metrics and returns their sum,
   the probe-corrected simulation time.  [untraced_ns] is the untraced wall
   time of the same simulated work, when the workload has it; the sum is
   compared against it. *)
let set r c ~untraced_ns =
  let open Probe in
  let cs = corrected_self_ns in
  let f = float_of_int in
  let net_span = if c.codec then net_send else send in
  let handle_t = cs handle in
  let net_t = cs net_span in
  let codec_t = if c.codec then cs send else 0.0 in
  let round_t = cs round in
  let load_t = cs inject +. cs sample in
  let engine_t = cs deliver +. cs subrun +. cs window +. cs campaign_sim in
  let sum = handle_t +. net_t +. codec_t +. round_t +. load_t +. engine_t in
  let pdus = count.(handle) in
  let set = Report.set r and ratio = Report.ratio in
  set "engine.dispatch_ns_per_pdu" (ratio engine_t (f pdus));
  set "engine.time_share" (ratio engine_t sum);
  set "net.send_ns_per_copy" (ratio net_t (f c.copies));
  set "net.send_words_per_copy" (ratio (f self_words.(net_span)) (f c.copies));
  set "net.time_share" (ratio net_t sum);
  set "net.copies_per_delivery" (Report.ratio_i c.copies c.remote);
  set "net.bytes_per_delivery" (Report.ratio_i c.bytes c.remote);
  set "net.control_bytes_share" (Report.ratio_i c.control_bytes c.bytes);
  set "net.recovery_copies_per_delivery"
    (Report.ratio_i c.recovery_copies c.remote);
  set "net.drop_share" (Report.ratio_i c.drops c.copies);
  if c.codec then begin
    set "codec.ns_per_pdu" (ratio codec_t (f count.(send)));
    set "codec.words_per_pdu" (Report.ratio_i self_words.(send) count.(send))
  end;
  set "codec.time_share" (ratio codec_t sum);
  set "member.handle_ns_per_pdu" (ratio handle_t (f pdus));
  set "member.handle_words_per_pdu" (Report.ratio_i self_words.(handle) pdus);
  set "member.handle_time_share" (ratio handle_t sum);
  set "member.pdus_per_delivery" (Report.ratio_i pdus c.remote);
  set "member.round_us_per_subrun" (ratio round_t (f c.subruns) /. 1e3);
  set "member.round_words_per_subrun"
    (Report.ratio_i self_words.(round) c.subruns);
  set "member.round_time_share" (ratio round_t sum);
  set "load.time_share" (ratio load_t sum);
  (match untraced_ns with
  | Some base when base > 0.0 -> set "trace.split_error_share" ((sum /. base) -. 1.0)
  | Some _ | None -> ());
  sum

let set_samples r (s : Stack.samples) ~discarded ~subruns =
  let set = Report.set r in
  set "causal.waiting_mean" (Report.ratio_i s.waiting_sum s.rounds);
  set "causal.waiting_peak" (float_of_int s.waiting_peak);
  set "causal.history_mean" (Report.ratio_i s.history_sum s.rounds);
  set "causal.history_peak" (float_of_int s.history_peak);
  set "member.sap_backlog_max" (float_of_int s.backlog_peak);
  set "causal.discarded_per_ksubrun" (1e3 *. Report.ratio_i discarded subruns)

let add_samples (a : Stack.samples) (b : Stack.samples) =
  a.rounds <- a.rounds + b.rounds;
  a.waiting_sum <- a.waiting_sum + b.waiting_sum;
  a.history_sum <- a.history_sum + b.history_sum;
  a.waiting_peak <- max a.waiting_peak b.waiting_peak;
  a.history_peak <- max a.history_peak b.history_peak;
  a.backlog_peak <- max a.backlog_peak b.backlog_peak

(* Reads the set-up phase's spans, then clears them so that later
   constructions (the campaign mirror's) are not mixed in. *)
let set_setup r =
  let open Probe in
  Report.set r "setup.cluster_us"
    (Report.ratio (corrected_self_ns setup_cluster) (float_of_int count.(setup_cluster))
    /. 1e3);
  Report.set r "setup.words" (Report.ratio_i total_words.(setup) count.(setup));
  clear setup;
  clear setup_cluster

let set_reduce r ~runs ~remote =
  let open Probe in
  let cs = corrected_self_ns in
  Report.set r "reduce.materialize_ms" (Report.ratio (cs materialize) (float_of_int runs) /. 1e6);
  Report.set r "reduce.check_ms" (Report.ratio (cs check) (float_of_int runs) /. 1e6);
  Report.set r "reduce.check_ns_per_delivery" (Report.ratio (cs check) (float_of_int remote));
  Report.set r "reduce.words_per_delivery"
    (Report.ratio_i (total_words.(materialize) + total_words.(check)) remote)
