(* The metric catalogue, the result line, and the small statistics every
   workload shares.  The catalogue must equal BENCHMARK.json's lists; the
   run checks that before measuring anything. *)

let end_to_end =
  [
    ("deliveries_per_s", "1/s");
    ("runs_per_s", "1/s");
    ("alloc_words_per_delivery", "words");
    ("promoted_words_per_delivery", "words");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("engine.dispatch_ns_per_pdu", "ns");
    ("engine.time_share", "ratio");
    ("engine.subrun_ms_p50", "ms");
    ("engine.subrun_ms_p99", "ms");
    ("gc.major_collections_per_ksubrun", "count");
    ("net.send_ns_per_copy", "ns");
    ("net.send_words_per_copy", "words");
    ("net.time_share", "ratio");
    ("net.copies_per_delivery", "count");
    ("net.bytes_per_delivery", "B");
    ("net.control_bytes_share", "ratio");
    ("net.recovery_copies_per_delivery", "count");
    ("net.drop_share", "ratio");
    ("codec.ns_per_pdu", "ns");
    ("codec.words_per_pdu", "words");
    ("codec.time_share", "ratio");
    ("member.handle_ns_per_pdu", "ns");
    ("member.handle_words_per_pdu", "words");
    ("member.handle_time_share", "ratio");
    ("member.pdus_per_delivery", "count");
    ("member.round_us_per_subrun", "us");
    ("member.round_words_per_subrun", "words");
    ("member.round_time_share", "ratio");
    ("member.sap_backlog_max", "count");
    ("load.time_share", "ratio");
    ("causal.waiting_mean", "count");
    ("causal.waiting_peak", "count");
    ("causal.history_mean", "count");
    ("causal.history_peak", "count");
    ("causal.discarded_per_ksubrun", "count");
    ("mem.retained_mb", "MB");
    ("sim.delay_p50_rtd", "rtd");
    ("sim.delay_p99_rtd", "rtd");
    ("setup.cluster_us", "us");
    ("setup.words", "words");
    ("reduce.materialize_ms", "ms");
    ("reduce.check_ms", "ms");
    ("reduce.check_ns_per_delivery", "ns");
    ("reduce.words_per_delivery", "words");
    ("campaign.generate_us_per_run", "us");
    ("campaign.setup_us_per_run", "us");
    ("campaign.sim_us_per_run", "us");
    ("campaign.reduce_us_per_run", "us");
    ("campaign.words_per_run", "words");
    ("explore.schedule_us", "us");
    ("explore.search_share", "ratio");
    ("explore.oracle_share", "ratio");
    ("explore.pruned_share", "ratio");
    ("explore.words_per_schedule", "words");
    ("trace.overhead_share", "ratio");
    ("trace.split_error_share", "ratio");
    ("trace.spans", "count");
  ]

(* -- one run's outcome -------------------------------------------------- *)

type t = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed gates, newest first *)
}

let create () =
  { values = Hashtbl.create 64; attempted = 0; failed = 0; problems = [] }

let set r name value = Hashtbl.replace r.values name value

(* Count [units] attempted, of which [failed] failed. *)
let attempt r ~units ~failed =
  r.attempted <- r.attempted + units;
  r.failed <- r.failed + failed

let gate r ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        r.problems <- msg :: r.problems;
        Printf.eprintf "e2e: FAILED %s\n%!" msg
      end)
    fmt

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

let percentile samples q =
  match samples with
  | [] -> 0.0
  | _ -> Stats.Summary.percentile (sorted samples) q

let median values = percentile values 0.5

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the default "exclusive" method). *)
let quartiles values =
  let a = sorted values in
  let len = Array.length a in
  if len = 0 then (0.0, 0.0, 0.0)
  else if len = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = len + 1 in
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let per_s count ns = ratio (float_of_int count) (float_of_int ns /. 1e9)

(* Times are reported at the reference host speed ([Probe.slowdown]):
   [ns] measured while the host ran [slowdown] times slower, in seconds. *)
let reference_s ns ~slowdown = float_of_int ns /. slowdown /. 1e9

(* On stderr: how far the host was from the reference speed, and the
   wall-clock throughput before rescaling. *)
let note_slowdown factors ~wall_deliveries_per_s =
  Printf.eprintf
    "e2e: %d samples; host slowdown median %.3f, range %.3f..%.3f; \
     wall-clock deliveries_per_s median %.6g\n%!"
    (List.length factors) (median factors)
    (List.fold_left Float.min infinity factors)
    (List.fold_left Float.max neg_infinity factors)
    (median wall_deliveries_per_s)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* [Gc.top_heap_words] when the first [repeat] of a run finished its
   [min]-th repetition.  The peak only grows with the number of
   repetitions, so reading it after a fixed number keeps it independent of
   the host's speed and of [--seconds]. *)
let peak_heap_words = ref 0

(* [f 1], [f 2], ... until [seconds] of wall-clock time have passed, and
   at least [min] times: 3 by default, so that every median has several
   samples; the traced runs, which report sums, need only 1. *)
let repeat ?(min = 3) ~seconds f =
  let deadline = Probe.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go i acc =
    if i > min && Probe.now_ns () >= deadline then List.rev acc
    else begin
      let x = f i in
      if i = min && !peak_heap_words = 0 then
        peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      go (i + 1) (x :: acc)
    end
  in
  go 1 []

let correct r = r.failed = 0 && r.problems = []

(* The last line of stdout: every metric of the requested list, in
   catalogue order. *)
let to_json r ~trace =
  let catalogue = if trace then per_layer else end_to_end in
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{"
    (correct r) r.attempted
    (if correct r then 0 else max 1 r.failed);
  List.iteri
    (fun i (name, unit) ->
      let value = Option.value ~default:0.0 (Hashtbl.find_opt r.values name) in
      let value = if Float.is_finite value then value else 0.0 in
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name value
        unit)
    catalogue;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let missing_end_to_end r =
  List.filter_map
    (fun (name, _) ->
      match Hashtbl.find_opt r.values name with
      | Some v when Float.is_finite v && v > 0.0 -> None
      | Some _ | None -> Some name)
    end_to_end

(* -- BENCHMARK.json ----------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type bound = { name : string; higher_better : bool; bound : float }

type benchmark = {
  workloads : string list;
  bounds : bound list;
  layer_names : (string * string) list;
  e2e_names : (string * string) list;
}

let benchmark_json path =
  let str = function Some (Sim.Json.Str s) -> s | _ -> failwith "string" in
  let num = function
    | Some (Sim.Json.Float f) -> f
    | Some (Sim.Json.Int i) -> float_of_int i
    | _ -> failwith "number"
  in
  let list key json =
    match Sim.Json.member key json with
    | Some (Sim.Json.List l) -> l
    | _ -> failwith (key ^ ": list expected")
  in
  match Sim.Json.parse (read_file path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok json ->
      let named l =
        List.map
          (fun m ->
            (str (Sim.Json.member "name" m), str (Sim.Json.member "unit" m)))
          l
      in
      {
        workloads =
          List.map (fun w -> str (Sim.Json.member "name" w)) (list "workloads" json);
        bounds =
          List.map
            (fun m ->
              {
                name = str (Sim.Json.member "name" m);
                higher_better = str (Sim.Json.member "better" m) = "higher";
                bound = num (Sim.Json.member "bound" m);
              })
            (list "end_to_end" json);
        e2e_names = named (list "end_to_end" json);
        layer_names = named (list "per_layer" json);
      }
