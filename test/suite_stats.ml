(* Tests for the statistics toolkit and the paper's analytic formulas. *)

let summary_tests =
  [
    Alcotest.test_case "empty sample" `Quick (fun () ->
        let s = Stats.Summary.of_list [] in
        Alcotest.(check int) "count" 0 s.Stats.Summary.count;
        Alcotest.(check (float 1e-9)) "mean" 0.0 s.Stats.Summary.mean);
    Alcotest.test_case "mean, min, max, stddev" `Quick (fun () ->
        let s = Stats.Summary.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
        Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.Summary.mean;
        Alcotest.(check (float 1e-9)) "sd" 2.0 s.Stats.Summary.stddev;
        Alcotest.(check (float 1e-9)) "min" 2.0 s.Stats.Summary.min;
        Alcotest.(check (float 1e-9)) "max" 9.0 s.Stats.Summary.max);
    Alcotest.test_case "percentiles interpolate" `Quick (fun () ->
        let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
        Alcotest.(check (float 1e-9)) "p50" 25.0
          (Stats.Summary.percentile sorted 0.5);
        Alcotest.(check (float 1e-9)) "p0" 10.0
          (Stats.Summary.percentile sorted 0.0);
        Alcotest.(check (float 1e-9)) "p100" 40.0
          (Stats.Summary.percentile sorted 1.0));
    Alcotest.test_case "percentile validates input" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Summary.percentile: empty sample") (fun () ->
            ignore (Stats.Summary.percentile [||] 0.5));
        Alcotest.check_raises "q"
          (Invalid_argument "Summary.percentile: q out of range") (fun () ->
            ignore (Stats.Summary.percentile [| 1.0 |] 1.5)));
    Alcotest.test_case "of_ints" `Quick (fun () ->
        let s = Stats.Summary.of_ints [ 1; 2; 3 ] in
        Alcotest.(check (float 1e-9)) "mean" 2.0 s.Stats.Summary.mean);
    Alcotest.test_case "single sample pins every percentile" `Quick (fun () ->
        let s = Stats.Summary.of_list [ 42.0 ] in
        Alcotest.(check (float 1e-9)) "p50" 42.0 s.Stats.Summary.p50;
        Alcotest.(check (float 1e-9)) "p95" 42.0 s.Stats.Summary.p95;
        Alcotest.(check (float 1e-9)) "p99" 42.0 s.Stats.Summary.p99;
        Alcotest.(check (float 1e-9)) "min" 42.0 s.Stats.Summary.min;
        Alcotest.(check (float 1e-9)) "max" 42.0 s.Stats.Summary.max);
    Alcotest.test_case "all-ties sample collapses to the tied value" `Quick
      (fun () ->
        let s = Stats.Summary.of_list [ 7.0; 7.0; 7.0; 7.0; 7.0 ] in
        Alcotest.(check (float 1e-9)) "p50" 7.0 s.Stats.Summary.p50;
        Alcotest.(check (float 1e-9)) "p95" 7.0 s.Stats.Summary.p95;
        Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Stats.Summary.stddev);
  ]

(* Properties the percentile estimator must satisfy on any sample: results
   stay inside [min, max], q is monotone, and a constant sample is a fixed
   point regardless of q or length. *)
let percentile_properties =
  let nonempty =
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0.0 1e6))
  in
  let quantile = QCheck.float_range 0.0 1.0 in
  [
    QCheck.Test.make ~name:"percentile stays within [min, max]" ~count:300
      QCheck.(pair nonempty quantile)
      (fun (xs, q) ->
        let sorted = Array.of_list (List.sort compare xs) in
        let p = Stats.Summary.percentile sorted q in
        p >= sorted.(0) && p <= sorted.(Array.length sorted - 1));
    QCheck.Test.make ~name:"percentile is monotone in q" ~count:300
      QCheck.(triple nonempty quantile quantile)
      (fun (xs, qa, qb) ->
        let sorted = Array.of_list (List.sort compare xs) in
        let lo = Float.min qa qb and hi = Float.max qa qb in
        Stats.Summary.percentile sorted lo
        <= Stats.Summary.percentile sorted hi);
    QCheck.Test.make ~name:"constant samples are a percentile fixed point"
      ~count:300
      QCheck.(triple (int_range 1 50) (float_range 0.0 1e6) quantile)
      (fun (len, v, q) ->
        let sorted = Array.make len v in
        Float.abs (Stats.Summary.percentile sorted q -. v) <= 1e-9);
  ]

(* The one summary core against the two rules it replaced, rebuilt here
   over a [List.sort Float.compare] copy: linear interpolation with the mean
   of the sorted-order sum ([Stats.Summary.of_list]) and nearest rank with
   the mean of the running sum in recording order ([Sim.Metrics]). *)
let interpolation sorted q =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let nearest_rank sorted q =
  let count = Array.length sorted in
  let rank = int_of_float (Float.ceil (q *. float_of_int count)) in
  let rank = min count (max 1 rank) in
  sorted.(rank - 1)

let reference rule ~sum samples =
  let sorted = Array.of_list (List.sort Float.compare samples) in
  let count = Array.length sorted in
  let mean = sum /. float_of_int count in
  let var =
    Array.fold_left
      (fun acc x ->
        let d = x -. mean in
        acc +. (d *. d))
      0.0 sorted
    /. float_of_int count
  in
  {
    Stats.Summary.count;
    mean;
    stddev = sqrt var;
    min = sorted.(0);
    max = sorted.(count - 1);
    p50 = rule sorted 0.5;
    p95 = rule sorted 0.95;
    p99 = rule sorted 0.99;
  }

let same (a : Stats.Summary.t) (b : Stats.Summary.t) =
  a.count = b.count && Float.equal a.mean b.mean
  && Float.equal a.stddev b.stddev && Float.equal a.min b.min
  && Float.equal a.max b.max && Float.equal a.p50 b.p50
  && Float.equal a.p95 b.p95 && Float.equal a.p99 b.p99

(* Duplicates from a small pool, negatives, and both infinities. *)
let samples =
  QCheck.make
    ~print:QCheck.Print.(list float)
    QCheck.Gen.(
      list_size (int_range 0 300)
        (frequency
           [
             (6, float_range (-1e6) 1e6);
             (3, oneofl [ 0.0; 1.0; -1.0; 2.5; 1e6 ]);
             (1, oneofl [ infinity; neg_infinity ]);
           ]))

let core_properties =
  [
    QCheck.Test.make ~name:"interpolated rule matches the reference" ~count:300
      samples (fun xs ->
        let s = Stats.Summary.of_list xs in
        match xs with
        | [] -> s = Stats.Summary.empty
        | _ ->
            let sorted = List.sort Float.compare xs in
            same s
              (reference interpolation
                 ~sum:(List.fold_left ( +. ) 0.0 sorted)
                 xs));
    QCheck.Test.make ~name:"nearest-rank rule matches the reference" ~count:300
      samples (fun xs ->
        let m = Sim.Metrics.create () in
        List.iter (Sim.Metrics.observe m "h") xs;
        match (xs, Sim.Metrics.histogram m "h") with
        | [], None -> true
        | _ :: _, Some s ->
            same s
              (reference nearest_rank ~sum:(List.fold_left ( +. ) 0.0 xs) xs)
        | _ -> false);
  ]

(* Words allocated by [f ()] per sample of [n]. *)
let words_per_sample n f =
  let before = Alloc_words.count () in
  ignore (Sys.opaque_identity (f ()));
  (Alloc_words.count () -. before) /. float_of_int n

let samples_10k = List.init 10_000 (fun i -> float_of_int (i * 7919 mod 10_007))

let alloc_tests =
  [
    Alcotest.test_case "of_list on 10 000 samples: <= 2 words per sample"
      `Quick (fun () ->
        let w =
          words_per_sample 10_000 (fun () -> Stats.Summary.of_list samples_10k)
        in
        Alcotest.(check bool) (Printf.sprintf "%.1f words per sample" w) true
          (w <= 2.0));
    Alcotest.test_case "a 10 000-sample histogram: <= 2 words per sample"
      `Quick (fun () ->
        let m = Sim.Metrics.create () in
        List.iter (Sim.Metrics.observe m "h") samples_10k;
        let w =
          words_per_sample 10_000 (fun () -> Sim.Metrics.histogram m "h")
        in
        Alcotest.(check bool) (Printf.sprintf "%.1f words per sample" w) true
          (w <= 2.0));
  ]

let series_tests =
  [
    Alcotest.test_case "y_at exact lookup" `Quick (fun () ->
        let s = Stats.Series.make ~label:"t" [ (1.0, 10.0); (2.0, 20.0) ] in
        Alcotest.(check (option (float 1e-9))) "hit" (Some 20.0)
          (Stats.Series.y_at s 2.0);
        Alcotest.(check (option (float 1e-9))) "miss" None
          (Stats.Series.y_at s 3.0));
    Alcotest.test_case "y_max and map_y" `Quick (fun () ->
        let s = Stats.Series.of_ints ~label:"t" [ (0, 3); (1, 7); (2, 5) ] in
        Alcotest.(check (float 1e-9)) "max" 7.0 (Stats.Series.y_max s);
        let doubled = Stats.Series.map_y s ~f:(fun y -> 2.0 *. y) in
        Alcotest.(check (float 1e-9)) "max doubled" 14.0
          (Stats.Series.y_max doubled));
    Alcotest.test_case "pp_table renders aligned rows" `Quick (fun () ->
        let a = Stats.Series.of_ints ~label:"a" [ (0, 1); (1, 2) ] in
        let b = Stats.Series.of_ints ~label:"b" [ (0, 3) ] in
        let out = Format.asprintf "%a" Stats.Series.pp_table [ a; b ] in
        Alcotest.(check bool) "has header" true
          (String.length out > 0
          &&
          let lines = String.split_on_char '\n' out in
          List.length lines >= 3);
        (* the hole in series b renders as '-' *)
        Alcotest.(check bool) "hole marked" true
          (String.contains out '-'));
    Alcotest.test_case "ascii_plot does not crash on edge inputs" `Quick
      (fun () ->
        let empty = Stats.Series.make ~label:"e" [] in
        let single = Stats.Series.make ~label:"s" [ (1.0, 1.0) ] in
        ignore (Format.asprintf "%a" (Stats.Series.ascii_plot ~width:20 ~height:5) [ empty ]);
        ignore
          (Format.asprintf "%a" (Stats.Series.ascii_plot ~width:20 ~height:5) [ single ]));
  ]

let table_tests =
  [
    Alcotest.test_case "renders aligned cells" `Quick (fun () ->
        let t =
          Stats.Table.create
            ~columns:[ ("name", Stats.Table.Left); ("value", Stats.Table.Right) ]
        in
        Stats.Table.add_row t [ "alpha"; "1" ];
        Stats.Table.add_rule t;
        Stats.Table.add_row t [ "b"; "100" ];
        let out = Format.asprintf "%a" Stats.Table.pp t in
        Alcotest.(check bool) "contains alpha" true
          (Astring_contains.contains out "alpha");
        Alcotest.(check bool) "right aligned value" true
          (Astring_contains.contains out "|     1 |"));
    Alcotest.test_case "rejects wrong arity" `Quick (fun () ->
        let t = Stats.Table.create ~columns:[ ("a", Stats.Table.Left) ] in
        Alcotest.check_raises "arity"
          (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
            Stats.Table.add_row t [ "x"; "y" ]));
    Alcotest.test_case "cell formatting" `Quick (fun () ->
        Alcotest.(check string) "int" "42" (Stats.Table.cell_int 42);
        Alcotest.(check string) "float" "3.14"
          (Stats.Table.cell_float ~decimals:2 3.14159));
  ]

let analytic_tests =
  [
    Alcotest.test_case "Table 1 formulas at the paper's n=15, K=3" `Quick
      (fun () ->
        Alcotest.(check int) "urcgc reliable msgs" 28
          (Stats.Analytic.urcgc_control_msgs_reliable ~n:15);
        Alcotest.(check int) "cbcast reliable msgs" 16
          (Stats.Analytic.cbcast_control_msgs_reliable ~n:15);
        Alcotest.(check int) "cbcast reliable size" 64
          (Stats.Analytic.cbcast_msg_size_reliable ~n:15);
        Alcotest.(check int) "cbcast flush size" 56
          (Stats.Analytic.cbcast_flush_size ~n:15);
        Alcotest.(check int) "urcgc crash msgs (f=0)" 168
          (Stats.Analytic.urcgc_control_msgs_crash ~n:15 ~k:3 ~f:0);
        Alcotest.(check int) "cbcast crash msgs (f=0)" 84
          (Stats.Analytic.cbcast_control_msgs_crash ~n:15 ~k:3 ~f:0));
    Alcotest.test_case "Figure 5 slopes" `Quick (fun () ->
        (* urcgc: 2K + f — slope 1 in f.  CBCAST: K(5f+6) — slope 5K. *)
        let u0 = Stats.Analytic.urcgc_recovery_time ~k:3 ~f:0 in
        let u1 = Stats.Analytic.urcgc_recovery_time ~k:3 ~f:1 in
        let c0 = Stats.Analytic.cbcast_recovery_time ~k:3 ~f:0 in
        let c1 = Stats.Analytic.cbcast_recovery_time ~k:3 ~f:1 in
        Alcotest.(check int) "urcgc slope 1" 1 (u1 - u0);
        Alcotest.(check int) "cbcast slope 5K" 15 (c1 - c0);
        Alcotest.(check int) "urcgc f=0 is 2K" 6 u0;
        Alcotest.(check int) "cbcast f=0 is 6K" 18 c0);
    Alcotest.test_case "history bounds" `Quick (fun () ->
        Alcotest.(check int) "reliable 2n" 80
          (Stats.Analytic.urcgc_history_bound_reliable ~n:40);
        Alcotest.(check int) "faulty 2(2K+f)n" 560
          (Stats.Analytic.urcgc_history_bound ~n:40 ~k:3 ~f:1));
    Alcotest.test_case "a urcgc control message fits an IP datagram at n=15"
      `Quick (fun () ->
        let d = Urcgc.Decision.initial ~n:15 in
        let r =
          {
            Urcgc.Wire.sender = Net.Node_id.of_int 1;
            subrun = 0;
            last_processed = Array.make 15 0;
            waiting = Array.make 15 None;
            prev_decision = d;
          }
        in
        Alcotest.(check bool) "request fits" true
          (Urcgc.Wire.request_size r <= Stats.Analytic.ip_min_datagram);
        Alcotest.(check bool) "decision fits" true
          (4 + Urcgc.Decision.encoded_size d <= Stats.Analytic.ip_min_datagram));
    Alcotest.test_case "a urcgc control message fits an Ethernet frame at n=40"
      `Quick (fun () ->
        let d = Urcgc.Decision.initial ~n:40 in
        Alcotest.(check bool) "fits" true
          (4 + Urcgc.Decision.encoded_size d
          <= Stats.Analytic.ethernet_max_payload));
  ]

let suite =
  [
    ( "stats.summary",
      summary_tests
      @ List.map QCheck_alcotest.to_alcotest percentile_properties );
    ( "stats.summary_core",
      alloc_tests @ List.map QCheck_alcotest.to_alcotest core_properties );
    ("stats.series", series_tests);
    ("stats.table", table_tests);
    ("stats.analytic", analytic_tests);
  ]
