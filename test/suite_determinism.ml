(* Determinism and ordering properties of the foundations that every
   experiment's reproducibility rests on. *)

let node n = Net.Node_id.of_int n

let engine_properties =
  [
    QCheck.Test.make ~name:"engine fires events in nondecreasing time order"
      ~count:200
      QCheck.(small_list small_nat)
      (fun times ->
        let engine = Sim.Engine.create () in
        let fired = ref [] in
        let kind =
          Sim.Engine.register engine ~label:"time" (fun t ->
              fired := t :: !fired)
        in
        List.iter
          (fun t -> Sim.Engine.post engine kind ~at:(Sim.Ticks.of_int t) t)
          times;
        Sim.Engine.run engine;
        let fired = List.rev !fired in
        fired = List.stable_sort compare times);
    QCheck.Test.make
      ~name:"two engines fed the same schedule do the same thing" ~count:100
      QCheck.(small_list (pair small_nat small_nat))
      (fun jobs ->
        let run () =
          let engine = Sim.Engine.create () in
          let log = ref [] in
          let kind =
            Sim.Engine.register engine ~label:"job" (fun v ->
                log := (Sim.Ticks.to_int (Sim.Engine.now engine), v) :: !log)
          in
          List.iter
            (fun (t, v) ->
              Sim.Engine.post engine kind ~at:(Sim.Ticks.of_int t) v)
            jobs;
          Sim.Engine.run engine;
          List.rev !log
        in
        run () = run ());
  ]

(* CBCAST delivery condition: feeding a member the messages of two senders
   in ANY interleaving always delivers them in a causally consistent order
   (per-sender FIFO; cross-sender as stamped). *)
let cbcast_order_property =
  QCheck.Test.make
    ~name:"cbcast delivers any network interleaving in causal order"
    ~count:200
    QCheck.(small_list bool)
    (fun interleaving ->
      (* Build two causal chains: p0 sends a1 a2 a3; p1 receives them as
         they come and sends b1 b2 b3 stamped accordingly.  The receiver p2
         gets all six in the random interleaving. *)
      let vt a b = Cbcast.Vclock.of_array [| a; b; 0 |] in
      let msg sender vtv i =
        {
          Cbcast.Cb_wire.sender = node sender;
          view_id = 0;
          vt = vtv;
          payload = Printf.sprintf "%c%d" (if sender = 0 then 'a' else 'b') i;
          payload_size = 2;
        }
      in
      let a_chain = List.init 3 (fun i -> msg 0 (vt (i + 1) 0) (i + 1)) in
      (* b_i is stamped having seen a_1..a_{i-1}: vt = [i-1; i; 0] *)
      let b_chain = List.init 3 (fun i -> msg 1 (vt i (i + 1)) (i + 1)) in
      (* Deterministic interleaving from the generated booleans. *)
      let rec weave choices xs ys =
        match (choices, xs, ys) with
        | _, [], rest | _, rest, [] -> rest
        | [], x :: xs, ys -> x :: weave [] xs ys
        | true :: cs, x :: xs, ys -> x :: weave cs xs ys
        | false :: cs, xs, y :: ys -> y :: weave cs xs ys
      in
      let stream = weave interleaving a_chain b_chain in
      let receiver : string Cbcast.Member.t =
        Cbcast.Member.create ~n:3 ~k:3 (node 2)
      in
      let delivered = ref [] in
      List.iter
        (fun m ->
          List.iter
            (function
              | Cbcast.Member.Delivered d ->
                  delivered := d.Cbcast.Cb_wire.payload :: !delivered
              | _ -> ())
            (Cbcast.Member.handle receiver ~subrun:0
               ~from:m.Cbcast.Cb_wire.sender (Cbcast.Cb_wire.Data m)))
        stream;
      let delivered = List.rev !delivered in
      (* All six delivered, per-sender FIFO, and b_i after a_i. *)
      let index value =
        let rec find i = function
          | [] -> -1
          | x :: _ when x = value -> i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 delivered
      in
      (* Causality here: per-sender FIFO, plus b2 after a1 and b3 after a2
         (b1 saw no a's and is concurrent with all of them). *)
      List.length delivered = 6
      && index "a1" < index "a2"
      && index "a2" < index "a3"
      && index "b1" < index "b2"
      && index "b2" < index "b3"
      && index "a1" < index "b2"
      && index "a2" < index "b3")

let tracer_tests =
  [
    Alcotest.test_case "dump renders every retained event" `Quick (fun () ->
        let tracer = Sim.Trace.create () in
        Sim.Trace.note tracer ~time:(Sim.Ticks.of_int 5) ~source:"p0" "one";
        Sim.Trace.emit tracer ~time:(Sim.Ticks.of_int 250)
          (Sim.Trace.Crash { node = 1 });
        Alcotest.(check string)
          "one line per record" "[0.05rtd] p0           one\n\
                                 [2.50rtd] n1           fail-stop of n1\n"
          (Format.asprintf "%a" Sim.Trace.dump tracer));
  ]

let suite =
  [
    ( "determinism.engine",
      List.map QCheck_alcotest.to_alcotest engine_properties );
    ( "determinism.cbcast_order",
      [ QCheck_alcotest.to_alcotest cbcast_order_property ] );
    ("determinism.tracer", tracer_tests);
  ]
