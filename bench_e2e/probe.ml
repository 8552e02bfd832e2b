(* Clocks, allocation counts and the span recorder of the traced run.

   Everything here is allocation-free on the hot path: the clock is an
   unboxed [noalloc] external, span state lives in preallocated columns,
   and the one allocating call (the [Gc.counters] tuple) is calibrated and
   subtracted, so traced allocation counts equal untraced ones. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* -- honest allocation ------------------------------------------------------

   Words allocated = minor + major - promoted: [Gc.minor_words] alone misses
   blocks above 256 words, which go straight to the major heap (n >= 256
   vectors, the cluster's 512-slot delivery chunks).  On OCaml 5.1
   [Gc.counters] reports minor words divided by 8, so the minor part comes
   from the exact, unboxed [Gc.minor_words].

   Each reading allocates one [Gc.counters] tuple after it has read the
   counters; [words] subtracts that cost for every earlier reading, so a
   delta between two readings counts only the code between them. *)

let raw_words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

let reading_cost =
  let a = raw_words () in
  let b = raw_words () in
  b - a

let readings = ref 0

let words () =
  let w = raw_words () - (!readings * reading_cost) in
  incr readings;
  w

let promoted_words () =
  let _, promoted, _ = Gc.counters () in
  incr readings;
  int_of_float promoted

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* -- host speed -------------------------------------------------------------

   On a shared host the speed of a core drifts by tens of percent over tens
   of seconds, which would swamp any change under test.  A fixed ALU loop,
   timed between subruns (or around a sweep), drifts with it: [slowdown] is
   its median time over [reference_ns], and dividing a measured time by it
   expresses that time at the reference speed.  The loop touches no memory
   and allocates nothing, so the code under test cannot change its speed.
   It tracks a slower core (frequency, a busy hyperthread sibling), not
   memory-bandwidth contention, which slows the simulation more; E2E.md
   has the measurements. *)

let loop_iterations = 2000
let reference_ns = 6000.0

let calibration_loop n =
  let x = ref 0x12345 in
  for i = 1 to n do
    x := ((!x * 0x5DEECE66D) + i) land 0xFFFFFFFFFFFF;
    x := !x lxor (!x lsr 17)
  done;
  !x

let speed = Array.make 100_000 0
let speed_count = ref 0
let speed_total_ns = ref 0

let speed_reset () =
  speed_count := 0;
  speed_total_ns := 0

let speed_sample () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (calibration_loop loop_iterations));
  let dt = now_ns () - t0 in
  if !speed_count < Array.length speed then begin
    speed.(!speed_count) <- dt;
    incr speed_count
  end;
  speed_total_ns := !speed_total_ns + dt

let speed_samples count =
  for _ = 1 to count do
    speed_sample ()
  done

(* Since the last [speed_reset]; 1.0 without samples. *)
let slowdown () =
  if !speed_count = 0 then 1.0
  else begin
    let a = Array.sub speed 0 !speed_count in
    Array.sort compare a;
    float_of_int a.(!speed_count / 2) /. reference_ns
  end

(* -- spans ------------------------------------------------------------------ *)

(* Span names index the aggregate columns. *)
let labels =
  [|
    "window"; "subrun"; "deliver"; "round"; "member.handle"; "medium.send";
    "net.send"; "load.inject"; "bench.sample"; "setup"; "setup.cluster";
    "reduce.materialize"; "reduce.check"; "campaign.generate"; "campaign.run";
    "campaign.setup"; "campaign.sim"; "campaign.reduce"; "explore.pass";
    "explore.schedule"; "calibrate";
  |]

let window = 0
let subrun = 1
let deliver = 2
let round = 3
let handle = 4
let send = 5
let net_send = 6
let inject = 7
let sample = 8
let setup = 9
let setup_cluster = 10
let materialize = 11
let check = 12
let generate = 13
let campaign_run = 14
let campaign_setup = 15
let campaign_sim = 16
let campaign_reduce = 17
let explore_pass = 18
let explore_schedule = 19
let calibrate = 20

let names = Array.length labels

(* Aggregates over every span, stored or not. *)
let count = Array.make names 0
let total_ns = Array.make names 0
let self_ns = Array.make names 0
let total_words = Array.make names 0
let self_words = Array.make names 0
let children = Array.make names 0

(* The open-span stack. *)
let max_depth = 64
let st_name = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_w0 = Array.make max_depth 0
let st_child_ns = Array.make max_depth 0
let st_child_words = Array.make max_depth 0
let st_children = Array.make max_depth 0
let st_slot = Array.make max_depth (-1)
let depth = ref 0

(* The first [capacity] spans, kept for the Chrome trace. *)
let capacity = 100_000
let sp_name = Array.make capacity 0
let sp_start = Array.make capacity 0
let sp_end = Array.make capacity 0
let sp_parent = Array.make capacity (-1)
let sp_words = Array.make capacity 0
let sp_run = Array.make capacity 0
let stored = ref 0
let spans = ref 0

let run_id = ref 0

let enter name =
  let d = !depth in
  if d >= max_depth then failwith "Probe.enter: spans nested too deep";
  st_name.(d) <- name;
  st_child_ns.(d) <- 0;
  st_child_words.(d) <- 0;
  st_children.(d) <- 0;
  (if !stored < capacity then begin
     let slot = !stored in
     incr stored;
     sp_name.(slot) <- name;
     sp_parent.(slot) <- (if d > 0 then st_slot.(d - 1) else -1);
     sp_run.(slot) <- !run_id;
     st_slot.(d) <- slot
   end
   else st_slot.(d) <- -1);
  depth := d + 1;
  st_w0.(d) <- words ();
  (* The clock is read last on entry and first on exit, so the bookkeeping
     falls outside the span. *)
  st_t0.(d) <- now_ns ()

let exit () =
  let t1 = now_ns () in
  let w1 = words () in
  let d = !depth - 1 in
  depth := d;
  let name = st_name.(d) in
  let dur = t1 - st_t0.(d) and w = w1 - st_w0.(d) in
  incr spans;
  count.(name) <- count.(name) + 1;
  total_ns.(name) <- total_ns.(name) + dur;
  self_ns.(name) <- self_ns.(name) + dur - st_child_ns.(d);
  total_words.(name) <- total_words.(name) + w;
  self_words.(name) <- self_words.(name) + w - st_child_words.(d);
  children.(name) <- children.(name) + st_children.(d);
  if d > 0 then begin
    st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dur;
    st_child_words.(d - 1) <- st_child_words.(d - 1) + w;
    st_children.(d - 1) <- st_children.(d - 1) + 1
  end;
  let slot = st_slot.(d) in
  if slot >= 0 then begin
    sp_start.(slot) <- st_t0.(d);
    sp_end.(slot) <- t1;
    sp_words.(slot) <- w
  end

let span name f =
  enter name;
  match f () with
  | v ->
      exit ();
      v
  | exception e ->
      exit ();
      raise e

let clear name =
  List.iter
    (fun a -> a.(name) <- 0)
    [ count; total_ns; self_ns; total_words; self_words; children ]

let reset () =
  List.iter
    (fun a -> Array.fill a 0 names 0)
    [ count; total_ns; self_ns; total_words; self_words; children ];
  stored := 0;
  spans := 0;
  depth := 0

(* -- probe cost --------------------------------------------------------------

   A span's measured duration includes part of its own probe ([inside_ns]),
   and its parent's self time includes the rest ([outside_ns]).  Both are
   measured here on empty spans and removed by [corrected_self_ns], so the
   per-layer split approximates the untraced run rather than the traced one. *)

let inside_ns = ref 0.0
let outside_ns = ref 0.0

let calibrate_probe () =
  let batch = 20_000 in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let samples =
    List.init 7 (fun _ ->
        reset ();
        enter calibrate;
        for _ = 1 to batch do
          enter window;
          exit ()
        done;
        exit ();
        let inside = float_of_int total_ns.(window) /. float_of_int batch in
        let outside =
          float_of_int self_ns.(calibrate) /. float_of_int batch
        in
        (inside, outside))
  in
  inside_ns := median (List.map fst samples);
  outside_ns := median (List.map snd samples);
  reset ()

(* Self time of every [name] span with the probes' own cost taken out. *)
let corrected_self_ns name =
  float_of_int self_ns.(name)
  -. (!inside_ns *. float_of_int count.(name))
  -. (!outside_ns *. float_of_int children.(name))

(* -- Chrome trace export ---------------------------------------------------- *)

let write_chrome path =
  let oc = open_out_bin path in
  let origin = if !stored > 0 then sp_start.(0) else 0 in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for i = 0 to !stored - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"words\":%d}}"
      labels.(sp_name.(i)) sp_run.(i)
      (float_of_int (sp_start.(i) - origin) /. 1e3)
      (float_of_int (sp_end.(i) - sp_start.(i)) /. 1e3)
      i sp_parent.(i) sp_words.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc
