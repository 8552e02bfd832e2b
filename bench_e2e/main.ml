(* End-to-end benchmark of the urcgc stack: warm clusters, campaign sweeps
   and the schedule explorer, with a traced per-layer split.  Run from the
   repository root:

     dune exec ./bench_e2e/main.exe -- --workload large_n128 --seed 1 \
       --seconds 10 --trace 0 [--out FILE]
     dune exec ./bench_e2e/main.exe -- compare A.json... -- B.json...

   The last stdout line is the result: {"correct", "attempted", "failed",
   "metrics"}, with every end-to-end metric of BENCHMARK.json under
   [--trace 0] and every per-layer one under [--trace 1].  The exit code is
   0 only when every correctness gate held.  See bench_e2e/E2E.md. *)

type workload = Steady of Steady.t | Campaign | Explore

let steady ~n ~rate ?(fault = Net.Fault.reliable) ?(codec = false)
    ?(crashes = []) ~warm ~window () =
  (* Crashes are given as (node, subruns after the warm-up). *)
  let crash (node, after) =
    ( Net.Node_id.of_int node,
      Sim.Ticks.of_int (((warm + after) * Sim.Ticks.per_rtd) + 1) )
  in
  Steady
    {
      Steady.shape =
        {
          Stack.n;
          k = None;
          rate;
          cap = max_int;
          fault = Net.Fault.with_crashes (List.map crash crashes) fault;
          codec;
        };
      warm;
      window;
    }

let workloads =
  [
    ("paper_n15", steady ~n:15 ~rate:1.0 ~warm:50 ~window:600 ());
    ("large_n128", steady ~n:128 ~rate:0.1 ~warm:10 ~window:50 ());
    ( "omission_n40",
      steady ~n:40 ~rate:0.5 ~fault:(Net.Fault.omission_every 100) ~warm:20
        ~window:60 () );
    ( "codec_crash_n40",
      steady ~n:40 ~rate:0.5 ~codec:true
        ~crashes:[ (0, 40); (20, 80) ]
        ~warm:20 ~window:120 () );
    ("campaign_sweep", Campaign);
    ("explore_pinned", Explore);
  ]

let benchmark_file = "BENCHMARK.json"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("e2e: " ^ msg);
      exit 2)
    fmt

(* The catalogue compiled in must be the one BENCHMARK.json declares. *)
let check_catalogue () =
  let b =
    try Report.benchmark_json benchmark_file
    with Sys_error e | Failure e -> die "%s: %s" benchmark_file e
  in
  if b.Report.e2e_names <> Report.end_to_end then
    die "%s: end_to_end differs from the compiled catalogue" benchmark_file;
  if b.Report.layer_names <> Report.per_layer then
    die "%s: per_layer differs from the compiled catalogue" benchmark_file;
  if b.Report.workloads <> List.map fst workloads then
    die "%s: workloads differ from the compiled table" benchmark_file;
  b

let spans_dir = "bench_e2e/_out"

(* One file per workload, so that repeated traced runs do not pile up. *)
let write_spans r ~workload =
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  let path = Printf.sprintf "%s/%s.trace.json" spans_dir workload in
  Probe.write_chrome path;
  Report.gate r
    (Result.is_ok (Sim.Json.parse (Report.read_file path)))
    "%s is not valid JSON" path;
  Printf.eprintf
    "e2e: wrote %d of %d spans to %s; probe cost %.0f ns inside a span, %.0f \
     ns in its parent\n%!"
    !Probe.stored !Probe.spans path !Probe.inside_ns !Probe.outside_ns

let run ~workload ~seed ~seconds ~trace ~out =
  ignore (check_catalogue ());
  let w =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
        die "unknown workload %S (%s)" workload
          (String.concat ", " (List.map fst workloads))
  in
  if trace then Probe.calibrate_probe ();
  let r = Report.create () in
  (match w with
  | Steady s -> Steady.run s r ~seed ~seconds ~trace
  | Campaign -> Sweep.run r ~seed ~seconds ~trace
  | Explore -> Pinned.run r ~seconds ~trace);
  if trace then begin
    Report.set r "trace.spans" (float_of_int !Probe.spans);
    write_spans r ~workload
  end
  else begin
    Report.set r "peak_heap_mb" (Report.mb !Report.peak_heap_words);
    List.iter
      (fun name -> Report.gate r false "metric %s was not measured" name)
      (Report.missing_end_to_end r)
  end;
  let line = Report.to_json r ~trace in
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out_bin path in
      Printf.fprintf oc "{\"workload\":\"%s\",\"seed\":%d,\"trace\":%b,\"result\":%s}\n"
        workload seed trace line;
      close_out oc);
  print_endline line;
  exit (if Report.correct r then 0 else 1)

(* -- compare ------------------------------------------------------------ *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* The rule of the choosing-metrics guide: a gain needs B to win at least
   9 of every 10 index-paired runs and a median shift wider than A's
   interquartile range; a regression is a median worse by more than the
   bound; a spread wider than the bound leaves the metric unresolved
   unless every B run beats every A run. *)
let judge_metric (b : Report.bound) a_values b_values =
  let better x y = if b.Report.higher_better then x > y else x < y in
  let ma = Report.median a_values and mb = Report.median b_values in
  let spread values =
    let q1, med, q3 = Report.quartiles values in
    Report.ratio (q3 -. q1) (Float.abs med)
  in
  let qa1, _, qa3 = Report.quartiles a_values in
  let rec pairs xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
  in
  let paired = pairs a_values b_values in
  let wins = List.length (List.filter (fun (x, y) -> better y x) paired) in
  let worse =
    Report.ratio (if b.Report.higher_better then ma -. mb else mb -. ma) (Float.abs ma)
  in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> better y x) a_values) b_values
  in
  if paired <> [] && 10 * wins >= 9 * List.length paired
     && Float.abs (mb -. ma) > qa3 -. qa1
  then Improved
  else if worse > b.Report.bound then Regressed
  else if Float.max (spread a_values) (spread b_values) > b.Report.bound
          && not all_better
  then Unresolved
  else Unchanged

(* An --out file: (workload, trace, metric values). *)
let load_result path =
  let fail msg = die "%s: %s" path msg in
  match Sim.Json.parse (Report.read_file path) with
  | Error e -> fail e
  | Ok json -> (
      let field k j = Sim.Json.member k j in
      match (field "workload" json, field "trace" json, field "result" json) with
      | Some (Sim.Json.Str workload), Some (Sim.Json.Bool trace), Some result ->
          let metrics =
            match field "metrics" result with
            | Some (Sim.Json.Obj fields) ->
                List.filter_map
                  (fun (name, m) ->
                    match field "value" m with
                    | Some (Sim.Json.Float v) -> Some (name, v)
                    | Some (Sim.Json.Int v) -> Some (name, float_of_int v)
                    | _ -> None)
                  fields
            | _ -> fail "no metrics"
          in
          (workload, trace, metrics)
      | _ -> fail "not an e2e --out file")

let compare_sets a_files b_files =
  let bench = check_catalogue () in
  let load files =
    List.filter_map
      (fun path ->
        let workload, trace, metrics = load_result path in
        if trace then None else Some (workload, metrics))
      files
  in
  let a = load a_files and b = load b_files in
  let values set workload metric =
    List.filter_map
      (fun (w, metrics) -> if w = workload then List.assoc_opt metric metrics else None)
      set
  in
  Printf.printf "%-16s %-28s %4s %12s %25s %4s %12s %25s %8s  %s\n" "workload"
    "metric" "nA" "median A" "[q1, q3] A" "nB" "median B" "[q1, q3] B" "delta"
    "verdict";
  let regressed = ref false in
  List.iter
    (fun workload ->
      List.iter
        (fun (bound : Report.bound) ->
          let av = values a workload bound.Report.name
          and bv = values b workload bound.Report.name in
          if av <> [] && bv <> [] then begin
            let qa1, ma, qa3 = Report.quartiles av
            and qb1, mb, qb3 = Report.quartiles bv in
            let v = judge_metric bound av bv in
            if v = Regressed then regressed := true;
            Printf.printf
              "%-16s %-28s %4d %12.6g [%10.6g, %10.6g] %4d %12.6g [%10.6g, %10.6g] %+7.2f%%  %s\n"
              workload bound.Report.name (List.length av) ma qa1 qa3
              (List.length bv) mb qb1 qb3
              (100.0 *. Report.ratio (mb -. ma) (Float.abs ma))
              (verdict_name v)
          end)
        bench.Report.bounds)
    bench.Report.workloads;
  exit (if !regressed then 1 else 0)

(* -- command line ------------------------------------------------------- *)

let usage () =
  die
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out \
     FILE]\n       main.exe compare A.json... -- B.json..."

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest ->
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | x :: xs -> split (x :: acc) xs
        | [] -> usage ()
      in
      let a, b = split [] rest in
      if a = [] || b = [] then usage ();
      compare_sets a b
  | args ->
      let rec parse opts = function
        | [] -> opts
        | key :: value :: rest
          when String.length key > 2 && String.sub key 0 2 = "--" ->
            parse ((String.sub key 2 (String.length key - 2), value) :: opts) rest
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get key =
        match List.assoc_opt key opts with Some v -> v | None -> usage ()
      in
      let int key =
        match int_of_string_opt (get key) with Some v -> v | None -> usage ()
      in
      List.iter
        (fun (key, _) ->
          if not (List.mem key [ "workload"; "seed"; "seconds"; "trace"; "out" ])
          then usage ())
        opts;
      let trace =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let seconds = float_of_int (int "seconds") in
      if seconds <= 0.0 then usage ();
      run ~workload:(get "workload") ~seed:(int "seed") ~seconds ~trace
        ~out:(List.assoc_opt "out" opts)
