(* Tests for the simulation kernel: time, heap, rng, engine, tracer. *)

let ticks_tests =
  let open Sim.Ticks in
  [
    Alcotest.test_case "per_rtd is even" `Quick (fun () ->
        Alcotest.(check int) "even" 0 (per_rtd mod 2));
    Alcotest.test_case "round is half an rtd" `Quick (fun () ->
        Alcotest.(check int) "half" per_rtd (2 * to_int round));
    Alcotest.test_case "subrun is one rtd" `Quick (fun () ->
        Alcotest.(check int) "rtd" per_rtd (to_int subrun));
    Alcotest.test_case "of_rtd/to_rtd roundtrip" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "3.5" 3.5 (to_rtd (of_rtd 3.5)));
    Alcotest.test_case "of_int rejects negatives" `Quick (fun () ->
        Alcotest.check_raises "negative" (Invalid_argument "Ticks.of_int: negative")
          (fun () -> ignore (of_int (-1))));
    Alcotest.test_case "add and diff" `Quick (fun () ->
        let a = of_int 30 and b = of_int 12 in
        Alcotest.(check int) "add" 42 (to_int (add a b));
        Alcotest.(check int) "diff" 18 (to_int (diff a b)));
    Alcotest.test_case "diff refuses negative result" `Quick (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Ticks.diff: negative result") (fun () ->
            ignore (diff (of_int 1) (of_int 2))));
    Alcotest.test_case "mul" `Quick (fun () ->
        Alcotest.(check int) "mul" 500 (to_int (mul (of_int 100) 5)));
    Alcotest.test_case "comparisons" `Quick (fun () ->
        Alcotest.(check bool) "lt" true (of_int 1 < of_int 2);
        Alcotest.(check bool) "le" true (of_int 2 <= of_int 2);
        Alcotest.(check bool) "ge" true (of_int 2 >= of_int 2);
        Alcotest.(check bool) "eq" true (equal (of_int 7) (of_int 7)));
  ]

(* Values popped with [pop_top] until the heap is empty. *)
let drain h =
  let rec loop acc =
    if Sim.Heap.is_empty h then List.rev acc
    else loop (Sim.Heap.pop_top h :: acc)
  in
  loop []

let heap_tests =
  [
    Alcotest.test_case "empty heap" `Quick (fun () ->
        let h = Sim.Heap.create () in
        Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
        Alcotest.check_raises "no top"
          (Invalid_argument "Heap.top_time: empty heap") (fun () ->
            ignore (Sim.Heap.top_time h));
        Alcotest.check_raises "no pop"
          (Invalid_argument "Heap.pop_top: empty heap") (fun () ->
            ignore (Sim.Heap.pop_top h)));
    Alcotest.test_case "pops in time order" `Quick (fun () ->
        let h = Sim.Heap.create () in
        List.iteri
          (fun i time ->
            Sim.Heap.push h ~time:(Sim.Ticks.of_int time) ~seq:i time)
          [ 30; 10; 20; 5; 25 ];
        Alcotest.(check int) "top time" 5
          (Sim.Ticks.to_int (Sim.Heap.top_time h));
        Alcotest.(check (list int)) "sorted" [ 5; 10; 20; 25; 30 ] (drain h));
    Alcotest.test_case "equal times break ties by seq" `Quick (fun () ->
        let h = Sim.Heap.create () in
        List.iteri
          (fun i v -> Sim.Heap.push h ~time:(Sim.Ticks.of_int 7) ~seq:i v)
          [ 3; 1; 2 ];
        Alcotest.(check (list int)) "fifo at same time" [ 3; 1; 2 ] (drain h));
    Alcotest.test_case "length tracks push/pop" `Quick (fun () ->
        let h = Sim.Heap.create () in
        for i = 1 to 100 do
          Sim.Heap.push h ~time:(Sim.Ticks.of_int (i mod 10)) ~seq:i i
        done;
        Alcotest.(check int) "100" 100 (Sim.Heap.length h);
        ignore (Sim.Heap.pop_top h);
        Alcotest.(check int) "99" 99 (Sim.Heap.length h));
  ]

let heap_property =
  QCheck.Test.make ~name:"heap pops nondecreasing times" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let h = Sim.Heap.create () in
      List.iteri
        (fun i (t, v) -> Sim.Heap.push h ~time:(Sim.Ticks.of_int t) ~seq:i v)
        pairs;
      let rec check last =
        Sim.Heap.is_empty h
        ||
        let t = Sim.Ticks.to_int (Sim.Heap.top_time h) in
        ignore (Sim.Heap.pop_top h);
        t >= last && check t
      in
      check min_int)

let rng_tests =
  [
    Alcotest.test_case "deterministic for equal seeds" `Quick (fun () ->
        let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
        for _ = 1 to 100 do
          Alcotest.(check int) "same" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
        done);
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
        let sa = List.init 16 (fun _ -> Sim.Rng.int a 1_000_000) in
        let sb = List.init 16 (fun _ -> Sim.Rng.int b 1_000_000) in
        Alcotest.(check bool) "diverge" true (sa <> sb));
    Alcotest.test_case "split yields independent stream" `Quick (fun () ->
        let a = Sim.Rng.create ~seed:7 in
        let c = Sim.Rng.split a in
        let sa = List.init 16 (fun _ -> Sim.Rng.int a 1_000_000) in
        let sc = List.init 16 (fun _ -> Sim.Rng.int c 1_000_000) in
        Alcotest.(check bool) "diverge" true (sa <> sc));
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:3 in
        for _ = 1 to 10_000 do
          let v = Sim.Rng.int rng 17 in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
        done);
    Alcotest.test_case "int rejects non-positive bound" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:3 in
        Alcotest.check_raises "zero"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Sim.Rng.int rng 0)));
    Alcotest.test_case "float in [0, bound)" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:5 in
        for _ = 1 to 10_000 do
          let v = Sim.Rng.float rng 2.5 in
          Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
        done);
    Alcotest.test_case "bernoulli edge cases" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:5 in
        Alcotest.(check bool) "p=0" false (Sim.Rng.bool rng 0.0);
        Alcotest.(check bool) "p=1" true (Sim.Rng.bool rng 1.0));
    Alcotest.test_case "bernoulli frequency near p" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:11 in
        let hits = ref 0 in
        let trials = 100_000 in
        for _ = 1 to trials do
          if Sim.Rng.bool rng 0.3 then incr hits
        done;
        let freq = float_of_int !hits /. float_of_int trials in
        Alcotest.(check bool) "within 2%" true (Float.abs (freq -. 0.3) < 0.02));
    Alcotest.test_case "pick uniform choice" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:13 in
        let arr = [| 1; 2; 3 |] in
        for _ = 1 to 100 do
          let v = Sim.Rng.pick rng arr in
          Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
        done);
    Alcotest.test_case "shuffle keeps multiset" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:17 in
        let arr = Array.init 50 Fun.id in
        Sim.Rng.shuffle rng arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted);
    Alcotest.test_case "exponential positive, near mean" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:19 in
        let sum = ref 0.0 in
        let trials = 50_000 in
        for _ = 1 to trials do
          let v = Sim.Rng.exponential rng ~mean:4.0 in
          Alcotest.(check bool) "nonneg" true (v >= 0.0);
          sum := !sum +. v
        done;
        let mean = !sum /. float_of_int trials in
        Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.0) < 0.2));
    Alcotest.test_case "geometric at p=1 is 0" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:23 in
        Alcotest.(check int) "0" 0 (Sim.Rng.geometric rng ~p:1.0));
    Alcotest.test_case "limb arithmetic matches Int64 splitmix64" `Quick
      (fun () ->
        (* The production Rng carries its 64-bit state as two unboxed
           32-bit halves (allocation-free draws); this boxed Int64 oracle
           is the original formulation.  Their streams must be bit-equal
           for every draw shape, or every fixed-seed simulation output
           shifts. *)
        let module Ref = struct
          type t = { mutable state : int64 }

          let golden_gamma = 0x9E3779B97F4A7C15L

          let mix z =
            let z =
              Int64.(
                mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
            in
            let z =
              Int64.(
                mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL)
            in
            Int64.(logxor z (shift_right_logical z 31))

          let create ~seed = { state = mix (Int64.of_int seed) }

          let int64 t =
            t.state <- Int64.add t.state golden_gamma;
            mix t.state

          let int t bound =
            let mask = Int64.max_int in
            let rec draw () =
              let v = Int64.to_int (Int64.logand (int64 t) mask) in
              let r = v mod bound in
              if v - r + (bound - 1) < 0 then draw () else r
            in
            draw ()

          let float t bound =
            let bits = Int64.shift_right_logical (int64 t) 11 in
            Int64.to_float bits /. 9007199254740992.0 *. bound
        end in
        List.iter
          (fun seed ->
            let a = Sim.Rng.create ~seed in
            let b = Ref.create ~seed in
            for _ = 1 to 200 do
              Alcotest.(check int64)
                "raw" (Ref.int64 b) (Sim.Rng.int64 a)
            done;
            for bound = 1 to 50 do
              Alcotest.(check int)
                "bounded" (Ref.int b bound) (Sim.Rng.int a bound)
            done;
            for _ = 1 to 200 do
              Alcotest.(check (float 0.0))
                "float" (Ref.float b 1.0) (Sim.Rng.float a 1.0)
            done)
          [ 0; 1; 7; 42; 123456789; max_int; min_int; -1 ]);
  ]

(* An engine with one kind whose events log their argument. *)
let logging_engine () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let kind =
    Sim.Engine.register engine ~label:"log" (fun v -> log := v :: !log)
  in
  (engine, kind, fun () -> List.rev !log)

let engine_tests =
  [
    Alcotest.test_case "runs events in time order" `Quick (fun () ->
        let engine, kind, log = logging_engine () in
        List.iter
          (fun t -> Sim.Engine.post engine kind ~at:(Sim.Ticks.of_int t) t)
          [ 30; 10; 20 ];
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (log ()));
    Alcotest.test_case "same-time events run in scheduling order" `Quick
      (fun () ->
        let engine, kind, log = logging_engine () in
        List.iter
          (fun v -> Sim.Engine.post engine kind ~at:(Sim.Ticks.of_int 5) v)
          [ 1; 2; 3; 4 ];
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (log ()));
    Alcotest.test_case "now advances to event time" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let seen = ref (-1) in
        let kind =
          Sim.Engine.register engine ~label:"now" (fun _ ->
              seen := Sim.Ticks.to_int (Sim.Engine.now engine))
        in
        Sim.Engine.post engine kind ~at:(Sim.Ticks.of_int 42) 0;
        Sim.Engine.run engine;
        Alcotest.(check int) "42" 42 !seen);
    Alcotest.test_case "cannot schedule in the past" `Quick (fun () ->
        let engine, kind, _ = logging_engine () in
        Sim.Engine.post engine kind ~at:(Sim.Ticks.of_int 10) 0;
        Sim.Engine.run engine;
        Alcotest.check_raises "past"
          (Invalid_argument "Engine.post: event in the past") (fun () ->
            Sim.Engine.post engine kind ~at:(Sim.Ticks.of_int 5) 0));
    Alcotest.test_case "post rejects a foreign kind and a bad argument" `Quick
      (fun () ->
        let engine, kind, _ = logging_engine () in
        let other, _, _ = logging_engine () in
        let at = Sim.Ticks.of_int 1 in
        Alcotest.check_raises "foreign kind"
          (Invalid_argument "Engine.post: kind of another engine") (fun () ->
            Sim.Engine.post other kind ~at 0);
        Alcotest.check_raises "negative argument"
          (Invalid_argument "Engine.post: argument out of range") (fun () ->
            Sim.Engine.post engine kind ~at (-1));
        Alcotest.check_raises "argument too large"
          (Invalid_argument "Engine.post: argument out of range") (fun () ->
            Sim.Engine.post engine kind ~at ((max_int lsr 10) + 1));
        Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending engine));
    Alcotest.test_case "run ~until leaves later events queued" `Quick (fun () ->
        let engine, kind, log = logging_engine () in
        Sim.Engine.post engine kind ~at:(Sim.Ticks.of_int 10) 10;
        Sim.Engine.post engine kind ~at:(Sim.Ticks.of_int 90) 90;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_int 50);
        Alcotest.(check (list int)) "only early" [ 10 ] (log ());
        Alcotest.(check int) "clock at limit" 50
          (Sim.Ticks.to_int (Sim.Engine.now engine));
        Alcotest.(check int) "one pending" 1 (Sim.Engine.pending engine);
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "rest runs" [ 10; 90 ] (log ()));
    Alcotest.test_case "events can schedule events" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let count = ref 0 in
        (* Each link posts the next one tick later, counting down. *)
        let rec link n =
          incr count;
          if n > 1 then
            Sim.Engine.post_after engine (Lazy.force kind)
              ~delay:(Sim.Ticks.of_int 1) (n - 1)
        and kind = lazy (Sim.Engine.register engine ~label:"chain" link) in
        Sim.Engine.post_after engine (Lazy.force kind)
          ~delay:(Sim.Ticks.of_int 1) 10;
        Sim.Engine.run engine;
        Alcotest.(check int) "10 links" 10 !count;
        Alcotest.(check int) "clock 10" 10
          (Sim.Ticks.to_int (Sim.Engine.now engine)));
    Alcotest.test_case "step returns false when empty" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        Alcotest.(check bool) "empty" false (Sim.Engine.step engine));
  ]

(* Events of two kinds share one (time, posting order) sequence.  Each
   generated event is of kind A or B, at a time in [0, 20], and may, when
   it fires, post one child of either kind after a delay.  The engine's
   firing order, with the kind that ran each event, must equal a naive
   reference that sorts pending events by (time, posting order). *)
type form = Kind_a | Kind_b

type spec = {
  at : int;
  form : form;
  child : (int * form) option;  (* delay and form, posted when this fires *)
}

let spec_gen =
  QCheck.Gen.(
    let form = oneofl [ Kind_a; Kind_b ] in
    (* A child with probability 1/3. *)
    let child =
      map2
        (fun roll v -> if roll = 0 then Some v else None)
        (int_bound 2)
        (pair (int_bound 5) form)
    in
    list_size (int_bound 40)
      (map
         (fun (at, form, child) -> { at; form; child })
         (triple (int_bound 20) form child)))

(* Fired (id, kind) pairs, in order, from the engine.  An event's id is its
   posting order; only initial events have children. *)
let engine_order specs =
  let specs = Array.of_list specs in
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  let next_id = ref (Array.length specs) in
  let rec fire form id =
    fired := (id, form) :: !fired;
    if id < Array.length specs then
      Option.iter
        (fun (delay, form) ->
          let child = !next_id in
          incr next_id;
          let now = Sim.Ticks.to_int (Sim.Engine.now engine) in
          post ~at:(now + delay) form child)
        specs.(id).child
  and post ~at form id =
    let kind = match form with Kind_a -> kind_a | Kind_b -> kind_b in
    Sim.Engine.post engine (Lazy.force kind) ~at:(Sim.Ticks.of_int at) id
  and kind_a = lazy (Sim.Engine.register engine ~label:"a" (fire Kind_a))
  and kind_b = lazy (Sim.Engine.register engine ~label:"b" (fire Kind_b)) in
  Array.iteri (fun id spec -> post ~at:spec.at spec.form id) specs;
  Sim.Engine.run engine;
  List.rev !fired

let reference_order specs =
  let specs = Array.of_list specs in
  let initial = Array.length specs in
  (* (time, id, form) *)
  let pending =
    ref (List.mapi (fun id spec -> (spec.at, id, spec.form)) (Array.to_list specs))
  in
  let next = ref initial in
  let fired = ref [] in
  let rec loop () =
    match List.sort compare !pending with
    | [] -> ()
    | (time, id, form) :: rest ->
        pending := rest;
        fired := (id, form) :: !fired;
        if id < initial then
          Option.iter
            (fun (delay, form) ->
              pending := (time + delay, !next, form) :: !pending;
              incr next)
            specs.(id).child;
        loop ()
  in
  loop ();
  List.rev !fired

let engine_property =
  QCheck.Test.make ~name:"events of two kinds fire in (time, posting order)"
    ~count:300
    (QCheck.make
       ~print:(fun specs -> Printf.sprintf "%d events" (List.length specs))
       spec_gen)
    (fun specs -> engine_order specs = reference_order specs)

(* Free-form narration goes into the typed trace as Note events. *)
let message (r : Sim.Trace.record) = Sim.Trace.event_message r.Sim.Trace.event

let tracer_tests =
  [
    Alcotest.test_case "emit and read back" `Quick (fun () ->
        let tracer = Sim.Trace.create () in
        Sim.Trace.note tracer ~time:(Sim.Ticks.of_int 5) ~source:"p0" "hello";
        Sim.Trace.note tracer ~time:(Sim.Ticks.of_int 6) ~source:"p1" "%d+%d"
          1 2;
        let records = Sim.Trace.records tracer in
        Alcotest.(check int) "2 events" 2 (List.length records);
        Alcotest.(check string) "fmt" "1+2" (message (List.nth records 1));
        Alcotest.(check string)
          "source" "p1"
          (Sim.Trace.event_source (List.nth records 1).Sim.Trace.event));
    Alcotest.test_case "capacity bounds retention" `Quick (fun () ->
        let tracer = Sim.Trace.create ~capacity:3 () in
        for i = 1 to 10 do
          Sim.Trace.note tracer ~time:(Sim.Ticks.of_int i) ~source:"s" "%d" i
        done;
        let records = Sim.Trace.records tracer in
        Alcotest.(check int) "3 retained" 3 (List.length records);
        Alcotest.(check int) "10 total" 10 (Sim.Trace.count tracer);
        Alcotest.(check string) "oldest dropped" "8" (message (List.hd records)));
    Alcotest.test_case "null tracer discards" `Quick (fun () ->
        (* The message is never formatted: the printer would fail. *)
        let never _ _ = Alcotest.fail "formatted a note on the null sink" in
        Sim.Trace.note Sim.Trace.null ~time:Sim.Ticks.zero ~source:"s" "%a-%d"
          never () 3;
        Alcotest.(check int) "nothing" 0 (Sim.Trace.count Sim.Trace.null));
    Alcotest.test_case "find" `Quick (fun () ->
        let tracer = Sim.Trace.create () in
        Sim.Trace.note tracer ~time:Sim.Ticks.zero ~source:"a" "one";
        Sim.Trace.note tracer ~time:Sim.Ticks.zero ~source:"b" "two";
        let found =
          Sim.Trace.find tracer ~f:(fun r ->
              Sim.Trace.event_source r.Sim.Trace.event = "b")
        in
        Alcotest.(check (option string)) "two" (Some "two")
          (Option.map message found));
  ]

let suite =
  [
    ("sim.ticks", ticks_tests);
    ("sim.heap", heap_tests @ [ QCheck_alcotest.to_alcotest heap_property ]);
    ("sim.rng", rng_tests);
    ("sim.engine", engine_tests @ [ QCheck_alcotest.to_alcotest engine_property ]);
    ("sim.tracer", tracer_tests);
  ]
