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

let heap_tests =
  [
    Alcotest.test_case "empty heap" `Quick (fun () ->
        let h : int Sim.Heap.t = Sim.Heap.create () in
        Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
        Alcotest.(check (option unit)) "no peek" None
          (Option.map (fun _ -> ()) (Sim.Heap.peek h));
        Alcotest.(check (option unit)) "no pop" None
          (Option.map (fun _ -> ()) (Sim.Heap.pop h)));
    Alcotest.test_case "pops in time order" `Quick (fun () ->
        let h = Sim.Heap.create () in
        List.iteri
          (fun i time ->
            Sim.Heap.push h ~time:(Sim.Ticks.of_int time) ~seq:i time)
          [ 30; 10; 20; 5; 25 ];
        let order = ref [] in
        let rec drain () =
          match Sim.Heap.pop h with
          | None -> ()
          | Some (_, _, v) ->
              order := v :: !order;
              drain ()
        in
        drain ();
        Alcotest.(check (list int)) "sorted" [ 5; 10; 20; 25; 30 ]
          (List.rev !order));
    Alcotest.test_case "equal times break ties by seq" `Quick (fun () ->
        let h = Sim.Heap.create () in
        List.iteri
          (fun i v -> Sim.Heap.push h ~time:(Sim.Ticks.of_int 7) ~seq:i v)
          [ "a"; "b"; "c" ];
        let pop () =
          match Sim.Heap.pop h with Some (_, _, v) -> v | None -> "?"
        in
        (* bind explicitly: list literals evaluate right to left *)
        let first = pop () in
        let second = pop () in
        let third = pop () in
        Alcotest.(check (list string)) "fifo at same time" [ "a"; "b"; "c" ]
          [ first; second; third ]);
    Alcotest.test_case "length tracks push/pop" `Quick (fun () ->
        let h = Sim.Heap.create () in
        for i = 1 to 100 do
          Sim.Heap.push h ~time:(Sim.Ticks.of_int (i mod 10)) ~seq:i i
        done;
        Alcotest.(check int) "100" 100 (Sim.Heap.length h);
        ignore (Sim.Heap.pop h);
        Alcotest.(check int) "99" 99 (Sim.Heap.length h);
        Sim.Heap.clear h;
        Alcotest.(check int) "0" 0 (Sim.Heap.length h));
    Alcotest.test_case "push after clear keeps working in order" `Quick
      (fun () ->
        let h = Sim.Heap.create () in
        for i = 1 to 50 do
          Sim.Heap.push h ~time:(Sim.Ticks.of_int i) ~seq:i i
        done;
        Sim.Heap.clear h;
        Alcotest.(check bool) "empty after clear" true (Sim.Heap.is_empty h);
        Alcotest.(check (option unit)) "no peek" None
          (Option.map (fun _ -> ()) (Sim.Heap.peek h));
        List.iteri
          (fun i time ->
            Sim.Heap.push h ~time:(Sim.Ticks.of_int time) ~seq:i time)
          [ 9; 3; 7; 1; 5 ];
        let rec drain acc =
          match Sim.Heap.pop h with
          | None -> List.rev acc
          | Some (_, _, v) -> drain (v :: acc)
        in
        Alcotest.(check (list int)) "sorted after clear" [ 1; 3; 5; 7; 9 ]
          (drain []));
    Alcotest.test_case "clear and pop release stored entries" `Quick (fun () ->
        (* The backing array survives clear (capacity is kept), but the
           entries must not: anything pushed is unreachable afterwards. *)
        let h = Sim.Heap.create () in
        let count = 12 in
        let weak = Weak.create (2 * count) in
        for i = 0 to count - 1 do
          let v = Bytes.make 32 (Char.chr (65 + (i mod 26))) in
          Weak.set weak i (Some v);
          Sim.Heap.push h ~time:(Sim.Ticks.of_int i) ~seq:i v
        done;
        Sim.Heap.clear h;
        Gc.full_major ();
        for i = 0 to count - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "cleared entry %d released" i)
            false (Weak.check weak i)
        done;
        (* Same for pop: a drained heap keeps no reference to its values. *)
        for i = 0 to count - 1 do
          let v = Bytes.make 32 (Char.chr (97 + (i mod 26))) in
          Weak.set weak (count + i) (Some v);
          Sim.Heap.push h ~time:(Sim.Ticks.of_int i) ~seq:i v
        done;
        while not (Sim.Heap.is_empty h) do
          ignore (Sim.Heap.pop h)
        done;
        Gc.full_major ();
        for i = 0 to count - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "popped entry %d released" i)
            false
            (Weak.check weak (count + i))
        done);
  ]

let heap_property =
  QCheck.Test.make ~name:"heap pops nondecreasing times" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let h = Sim.Heap.create () in
      List.iteri
        (fun i (t, v) -> Sim.Heap.push h ~time:(Sim.Ticks.of_int t) ~seq:i v)
        pairs;
      let rec drain last acc =
        match Sim.Heap.pop h with
        | None -> acc
        | Some (time, _, _) ->
            let t = Sim.Ticks.to_int time in
            if t < last then false else drain t acc
      in
      drain min_int true)

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

let engine_tests =
  [
    Alcotest.test_case "runs events in time order" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let log = ref [] in
        let at t v =
          ignore
            (Sim.Engine.schedule engine ~at:(Sim.Ticks.of_int t) (fun () ->
                 log := v :: !log))
        in
        at 30 "c";
        at 10 "a";
        at 20 "b";
        Sim.Engine.run engine;
        Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log));
    Alcotest.test_case "same-time events run in scheduling order" `Quick
      (fun () ->
        let engine = Sim.Engine.create () in
        let log = ref [] in
        List.iter
          (fun v ->
            ignore
              (Sim.Engine.schedule engine ~at:(Sim.Ticks.of_int 5) (fun () ->
                   log := v :: !log)))
          [ 1; 2; 3; 4 ];
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (List.rev !log));
    Alcotest.test_case "now advances to event time" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let seen = ref (-1) in
        ignore
          (Sim.Engine.schedule engine ~at:(Sim.Ticks.of_int 42) (fun () ->
               seen := Sim.Ticks.to_int (Sim.Engine.now engine)));
        Sim.Engine.run engine;
        Alcotest.(check int) "42" 42 !seen);
    Alcotest.test_case "cannot schedule in the past" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        ignore (Sim.Engine.schedule engine ~at:(Sim.Ticks.of_int 10) (fun () -> ()));
        Sim.Engine.run engine;
        Alcotest.check_raises "past"
          (Invalid_argument "Engine.schedule: event in the past") (fun () ->
            ignore
              (Sim.Engine.schedule engine ~at:(Sim.Ticks.of_int 5) (fun () -> ()))));
    Alcotest.test_case "cancel prevents execution" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let fired = ref false in
        let handle =
          Sim.Engine.schedule engine ~at:(Sim.Ticks.of_int 10) (fun () ->
              fired := true)
        in
        Sim.Engine.cancel handle;
        Sim.Engine.run engine;
        Alcotest.(check bool) "not fired" false !fired);
    Alcotest.test_case "run ~until leaves later events queued" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let fired = ref [] in
        let at t =
          ignore
            (Sim.Engine.schedule engine ~at:(Sim.Ticks.of_int t) (fun () ->
                 fired := t :: !fired))
        in
        at 10;
        at 90;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_int 50);
        Alcotest.(check (list int)) "only early" [ 10 ] (List.rev !fired);
        Alcotest.(check int) "clock at limit" 50
          (Sim.Ticks.to_int (Sim.Engine.now engine));
        Alcotest.(check int) "one pending" 1 (Sim.Engine.pending engine);
        Sim.Engine.run engine;
        Alcotest.(check (list int)) "rest runs" [ 10; 90 ] (List.rev !fired));
    Alcotest.test_case "events can schedule events" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let count = ref 0 in
        let rec chain n =
          if n > 0 then
            ignore
              (Sim.Engine.schedule_after engine ~delay:(Sim.Ticks.of_int 1)
                 (fun () ->
                   incr count;
                   chain (n - 1)))
        in
        chain 10;
        Sim.Engine.run engine;
        Alcotest.(check int) "10 links" 10 !count;
        Alcotest.(check int) "clock 10" 10
          (Sim.Ticks.to_int (Sim.Engine.now engine)));
    Alcotest.test_case "stop interrupts run" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let count = ref 0 in
        for i = 1 to 10 do
          ignore
            (Sim.Engine.schedule engine ~at:(Sim.Ticks.of_int i) (fun () ->
                 incr count;
                 if !count = 3 then Sim.Engine.stop engine))
        done;
        Sim.Engine.run engine;
        Alcotest.(check int) "stopped at 3" 3 !count);
    Alcotest.test_case "step returns false when empty" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        Alcotest.(check bool) "empty" false (Sim.Engine.step engine));
  ]

(* Typed and closure events share one (time, scheduling order) sequence.
   Each generated event is a closure or a typed event of kind A or B, at a
   time in [0, 20]; a closure may be cancelled before the run; any event
   may, when it fires, cancel one of the initial events and schedule one
   child after a delay.  The engine's firing order must equal a naive
   reference that sorts pending events by (time, scheduling order). *)
type form = Closure | Kind_a | Kind_b

type spec = {
  at : int;
  form : form;
  cancelled : bool;  (* before the run; closures only *)
  cancels : int option;  (* an initial event, cancelled when this fires *)
  child : (int * form) option;  (* delay and form, scheduled when this fires *)
}

let spec_gen =
  QCheck.Gen.(
    let form = oneofl [ Closure; Kind_a; Kind_b ] in
    (* Some with probability 1/k. *)
    let sometimes k gen =
      map2 (fun roll v -> if roll = 0 then Some v else None) (int_bound (k - 1)) gen
    in
    list_size (int_bound 40)
      (map
         (fun ((at, form, cancelled), (cancels, child)) ->
           { at; form; cancelled = cancelled && form = Closure; cancels; child })
         (pair
            (triple (int_bound 20) form (map (fun k -> k = 0) (int_bound 3)))
            (pair
               (sometimes 5 (int_bound 39))
               (sometimes 3 (pair (int_bound 5) form))))))

(* Fired event ids, in order, from the engine. *)
let engine_order specs =
  let specs = Array.of_list specs in
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  let handles = Hashtbl.create 16 in
  (* Per id: what firing it does.  Children do nothing more. *)
  let effects = Hashtbl.create 16 in
  let next_id = ref (Array.length specs) in
  let rec fire id =
    fired := id :: !fired;
    match Hashtbl.find_opt effects id with
    | None -> ()
    | Some (cancels, child) -> (
        Option.iter
          (fun j ->
            if j < Array.length specs then
              Option.iter Sim.Engine.cancel (Hashtbl.find_opt handles j))
          cancels;
        match child with
        | None -> ()
        | Some (delay, form) ->
            let id = !next_id in
            incr next_id;
            schedule ~at:(Sim.Ticks.to_int (Sim.Engine.now engine) + delay) form id)
  and schedule ~at form id =
    let at = Sim.Ticks.of_int at in
    match form with
    | Closure ->
        Hashtbl.replace handles id
          (Sim.Engine.schedule engine ~at (fun () -> fire id))
    | Kind_a -> Sim.Engine.post engine (Lazy.force kind_a) ~at id
    | Kind_b -> Sim.Engine.post engine (Lazy.force kind_b) ~at id
  and kind_a = lazy (Sim.Engine.register engine ~label:"a" fire)
  and kind_b = lazy (Sim.Engine.register engine ~label:"b" fire) in
  Array.iteri
    (fun id spec ->
      Hashtbl.replace effects id (spec.cancels, spec.child);
      schedule ~at:spec.at spec.form id)
    specs;
  Array.iteri
    (fun id spec ->
      if spec.cancelled then Sim.Engine.cancel (Hashtbl.find handles id))
    specs;
  Sim.Engine.run engine;
  List.rev !fired

let reference_order specs =
  let specs = Array.of_list specs in
  let initial = Array.length specs in
  (* (time, id, form): an event's id is its scheduling order. *)
  let pending =
    ref (List.mapi (fun id spec -> (spec.at, id, spec.form)) (Array.to_list specs))
  in
  let cancelled = Hashtbl.create 16 in
  Array.iteri
    (fun id spec -> if spec.cancelled then Hashtbl.replace cancelled id ())
    specs;
  let next = ref initial in
  let fired = ref [] in
  let rec loop () =
    match List.sort compare !pending with
    | [] -> ()
    | (time, id, form) :: rest ->
        pending := rest;
        if not (form = Closure && Hashtbl.mem cancelled id) then begin
          fired := id :: !fired;
          if id < initial then begin
            let spec = specs.(id) in
            Option.iter
              (fun j ->
                if j < initial && specs.(j).form = Closure then
                  Hashtbl.replace cancelled j ())
              spec.cancels;
            Option.iter
              (fun (delay, form) ->
                pending := (time + delay, !next, form) :: !pending;
                incr next)
              spec.child
          end
        end;
        loop ()
  in
  loop ();
  List.rev !fired

let engine_property =
  QCheck.Test.make
    ~name:"typed and closure events fire in (time, scheduling order)"
    ~count:300
    (QCheck.make
       ~print:(fun specs -> Printf.sprintf "%d events" (List.length specs))
       spec_gen)
    (fun specs ->
      let fired = engine_order specs in
      let never_cancelled id =
        id >= List.length specs || not (List.nth specs id).cancelled
      in
      fired = reference_order specs && List.for_all never_cancelled fired)

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
