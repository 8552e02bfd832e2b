(* Tests for the optimized delivery hot path (dependency-indexed waiting
   list, dense history rings):

   - History purge regression tests, including purging at exactly the
     highest stored seq (a case the pre-optimization code mishandled with a
     dead match arm);
   - the incrementally maintained per-origin oldest against brute-force
     recomputation from [to_list];
   - a randomized equivalence property driving [Waiting_list_reference]
     (the old O(W)-scan implementation, kept as an executable spec) and the
     production [Causal.Waiting_list] with identical operation sequences. *)

let node n = Net.Node_id.of_int n
let mid o s = Causal.Mid.make ~origin:(node o) ~seq:s

let msg ?(deps = []) o s =
  Causal.Causal_msg.make ~mid:(mid o s) ~deps ~payload_size:8 (o, s)

let mid_testable = Alcotest.testable Causal.Mid.pp Causal.Mid.equal

(* -- history purge regressions ------------------------------------------ *)

let history_tests =
  [
    Alcotest.test_case "purge at exactly the highest stored seq" `Quick
      (fun () ->
        let h = Causal.History.create ~n:2 in
        for s = 1 to 5 do
          Causal.History.store h (msg 0 s)
        done;
        Alcotest.(check int) "removed all five" 5
          (Causal.History.purge_upto h ~origin:(node 0) ~seq:5);
        Alcotest.(check bool) "seq 5 gone" false
          (Causal.History.mem h (mid 0 5));
        Alcotest.(check int) "origin empty" 0
          (Causal.History.entry_length h (node 0));
        Alcotest.(check int) "history empty" 0 (Causal.History.length h));
    Alcotest.test_case "purge at an interior seq keeps the suffix" `Quick
      (fun () ->
        let h = Causal.History.create ~n:2 in
        for s = 1 to 5 do
          Causal.History.store h (msg 0 s)
        done;
        Alcotest.(check int) "removed prefix" 3
          (Causal.History.purge_upto h ~origin:(node 0) ~seq:3);
        Alcotest.(check bool) "seq 3 gone" false
          (Causal.History.mem h (mid 0 3));
        Alcotest.(check bool) "seq 4 kept" true
          (Causal.History.mem h (mid 0 4));
        Alcotest.(check int) "max_seq unchanged" 5
          (Causal.History.max_seq h ~origin:(node 0));
        Alcotest.(check int) "two left" 2
          (Causal.History.entry_length h (node 0)));
    Alcotest.test_case "purge counts only stored slots in a sparse window"
      `Quick (fun () ->
        let h = Causal.History.create ~n:2 in
        List.iter (fun s -> Causal.History.store h (msg 0 s)) [ 1; 4; 7 ];
        Alcotest.(check int) "two of the first four seqs stored" 2
          (Causal.History.purge_upto h ~origin:(node 0) ~seq:4);
        Alcotest.(check bool) "seq 7 kept" true
          (Causal.History.mem h (mid 0 7));
        Alcotest.(check int) "one left" 1
          (Causal.History.entry_length h (node 0)));
    Alcotest.test_case "store after a full purge restarts the window" `Quick
      (fun () ->
        let h = Causal.History.create ~n:2 in
        for s = 1 to 3 do
          Causal.History.store h (msg 0 s)
        done;
        ignore (Causal.History.purge_upto h ~origin:(node 0) ~seq:3);
        Causal.History.store h (msg 0 9);
        Alcotest.(check bool) "seq 9 stored" true
          (Causal.History.mem h (mid 0 9));
        Alcotest.(check int) "max_seq follows" 9
          (Causal.History.max_seq h ~origin:(node 0));
        Alcotest.(check (list mid_testable)) "range sees only seq 9"
          [ mid 0 9 ]
          (List.map
             (fun m -> m.Causal.Causal_msg.mid)
             (Causal.History.range h ~origin:(node 0) ~lo:1 ~hi:20)));
  ]

(* -- incremental oldest vs brute force ---------------------------------- *)

let brute_oldest_vector wl ~n =
  let waiting = Causal.Waiting_list.to_list wl in
  Array.init n (fun o ->
      List.fold_left
        (fun acc m ->
          let mid = m.Causal.Causal_msg.mid in
          if Net.Node_id.to_int (Causal.Mid.origin mid) <> o then acc
          else
            match acc with
            | Some best when Causal.Mid.seq best <= Causal.Mid.seq mid -> acc
            | Some _ | None -> Some mid)
        None waiting)

let check_oldest_matches_brute ~ctx wl ~n =
  let fast = Causal.Waiting_list.oldest_vector wl in
  let brute = brute_oldest_vector wl ~n in
  for o = 0 to n - 1 do
    Alcotest.(check (option mid_testable))
      (Printf.sprintf "%s: oldest of origin %d" ctx o)
      brute.(o) fast.(o)
  done

let oldest_tests =
  [
    Alcotest.test_case "incremental oldest matches brute force" `Quick
      (fun () ->
        let n = 4 in
        let rng = Random.State.make [| 0x01de57 |] in
        let wl = Causal.Waiting_list.create ~n in
        let delivery = Causal.Delivery.create ~n in
        for step = 1 to 400 do
          let ctx = Printf.sprintf "step %d" step in
          (match Random.State.int rng 100 with
          | r when r < 55 ->
              let o = Random.State.int rng n in
              Causal.Waiting_list.add wl
                (msg o (1 + Random.State.int rng 10))
          | r when r < 70 ->
              Causal.Waiting_list.remove wl
                (mid (Random.State.int rng n) (1 + Random.State.int rng 10))
          | r when r < 85 ->
              ignore
                (Causal.Waiting_list.discard_from wl
                   ~origin:(node (Random.State.int rng n))
                   ~seq:(1 + Random.State.int rng 10))
          | _ -> (
              match Causal.Waiting_list.take_processable wl delivery with
              | Some m -> Causal.Delivery.mark delivery m.Causal.Causal_msg.mid
              | None -> ()));
          check_oldest_matches_brute ~ctx wl ~n
        done);
  ]

(* -- randomized equivalence against the reference model ------------------ *)

let equivalence_runs = 120
let equivalence_ops = 60

(* [dense] gives every message one dependency on each other origin, the
   shape of a sender's frontier; otherwise each other origin is a
   dependency with probability 1/4. *)
let run_equivalence ?(n = 4) ?(dense = false) seed =
  let max_seq = 12 in
  let rng = Random.State.make [| 0x5eed; seed; n |] in
  let reference = Waiting_list_reference.create ~n in
  let wl = Causal.Waiting_list.create ~n in
  let delivery = Causal.Delivery.create ~n in
  (* Alcotest prints this message on failure, so the failing seed is always
     recoverable: rerun [run_equivalence ~n ~dense seed] alone to shrink by
     hand. *)
  let fail fmt =
    Format.kasprintf
      (fun detail ->
        Alcotest.failf
          "equivalence mismatch (n = %d%s, failing seed %d): %s" n
          (if dense then ", dense deps" else "")
          seed detail)
      fmt
  in
  let rand_origin () = Random.State.int rng n in
  let rand_seq () = 1 + Random.State.int rng max_seq in
  (* Half the seqs land just past what is processed, so that several
     origins often hold a processable message at once. *)
  let near_seq o =
    if Random.State.bool rng then rand_seq ()
    else
      Causal.Delivery.last_processed delivery (node o)
      + 1
      + Random.State.int rng 2
  in
  let rand_deps o =
    List.filter_map
      (fun o' ->
        if o' = o || ((not dense) && Random.State.int rng 4 > 0) then None
        else Some (mid o' (max 1 (near_seq o' - 1))))
      (List.init n Fun.id)
  in
  let rand_msg () =
    let o = rand_origin () in
    msg ~deps:(rand_deps o) o (near_seq o)
  in
  let mids_of l = List.map (fun m -> m.Causal.Causal_msg.mid) l in
  let pp_mids = Format.pp_print_list Causal.Mid.pp in
  let add m =
    Waiting_list_reference.add reference m;
    Causal.Waiting_list.add wl m
  in
  let remove victim =
    let ma = Waiting_list_reference.mem reference victim in
    let mb = Causal.Waiting_list.mem wl victim in
    if ma <> mb then
      fail "mem %a: %b (reference) vs %b" Causal.Mid.pp victim ma mb;
    Waiting_list_reference.remove reference victim;
    Causal.Waiting_list.remove wl victim
  in
  let discard origin seq =
    let da = Waiting_list_reference.discard_from reference ~origin ~seq in
    let db = Causal.Waiting_list.discard_from wl ~origin ~seq in
    if not (List.equal Causal.Mid.equal da db) then
      fail "discard_from (%a,%d): [%a] (reference) vs [%a]" Net.Node_id.pp
        origin seq pp_mids da pp_mids db
  in
  let check_state () =
    let la = Waiting_list_reference.length reference in
    let lb = Causal.Waiting_list.length wl in
    if la <> lb then fail "length %d (reference) vs %d" la lb;
    let ta = mids_of (Waiting_list_reference.to_list reference) in
    let tb = mids_of (Causal.Waiting_list.to_list wl) in
    if not (List.equal Causal.Mid.equal ta tb) then
      fail "to_list [%a] (reference) vs [%a]" pp_mids ta pp_mids tb;
    let va = Waiting_list_reference.oldest_vector reference in
    let vb = Causal.Waiting_list.oldest_vector wl in
    for o = 0 to n - 1 do
      if not (Option.equal Causal.Mid.equal va.(o) vb.(o)) then
        fail "oldest_vector origin %d: %a (reference) vs %a" o
          (Format.pp_print_option Causal.Mid.pp)
          va.(o)
          (Format.pp_print_option Causal.Mid.pp)
          vb.(o)
    done
  in
  for _op = 1 to equivalence_ops do
    (match Random.State.int rng 100 with
    | r when r < 35 -> add (rand_msg ())
    | r when r < 43 -> remove (mid (rand_origin ()) (rand_seq ()))
    | r when r < 55 -> discard (node (rand_origin ())) (rand_seq ())
    | r when r < 77 ->
        (* Usually drain to the end; sometimes stop after a take or two, so
           processable messages stay behind while the vector moves on. *)
        let rec drain budget =
          let a = Waiting_list_reference.take_processable reference delivery in
          let b = Causal.Waiting_list.take_processable wl delivery in
          match (a, b) with
          | None, None -> ()
          | Some ma, Some mb
            when Causal.Mid.equal ma.Causal.Causal_msg.mid
                   mb.Causal.Causal_msg.mid ->
              Causal.Delivery.mark delivery ma.Causal.Causal_msg.mid;
              if budget > 1 then drain (budget - 1)
          | a, b ->
              let pp ppf = function
                | None -> Format.pp_print_string ppf "None"
                | Some m -> Causal.Mid.pp ppf m.Causal.Causal_msg.mid
              in
              fail "take_processable %a (reference) vs %a" pp a pp b
        in
        drain
          (if Random.State.bool rng then max_int
           else 1 + Random.State.int rng 2)
    | r when r < 84 ->
        (* Shared delivery state jumps ahead without processing, exercising
           the optimized list's lazy resynchronization. *)
        Causal.Delivery.force_skip_to delivery
          ~origin:(node (rand_origin ()))
          ~seq:(rand_seq ())
    | r when r < 92 ->
        (* An origin's next message processed outside [take_processable],
           as a member does with a message processable on arrival: the
           lists see the vector move only at their next sync.  Half the
           time it is a copy of a waiting message that could be taken. *)
        let next o =
          mid o (Causal.Delivery.last_processed delivery (node o) + 1)
        in
        let is_next m =
          let m = m.Causal.Causal_msg.mid in
          Causal.Mid.equal m (next (Net.Node_id.to_int (Causal.Mid.origin m)))
        in
        let waiting_next =
          List.filter is_next (Waiting_list_reference.to_list reference)
        in
        Causal.Delivery.mark delivery
          (match waiting_next with
          | m :: _ when Random.State.bool rng -> m.Causal.Causal_msg.mid
          | _ -> next (rand_origin ()))
    | _ -> (
        (* Remove a waiting message and re-add its mid under a different
           dependency set, then discard from one of the new dependencies:
           nothing may still follow the old set. *)
        match Waiting_list_reference.to_list reference with
        | [] -> ()
        | waiting ->
            let old =
              List.nth waiting (Random.State.int rng (List.length waiting))
            in
            let m = old.Causal.Causal_msg.mid in
            let o = Net.Node_id.to_int (Causal.Mid.origin m) in
            let deps =
              match rand_deps o with
              | deps
                when not
                       (List.equal Causal.Mid.equal deps
                          (Array.to_list old.Causal.Causal_msg.deps)) ->
                  deps
              | _ :: rest -> rest
              | [] -> [ mid ((o + 1) mod n) (rand_seq ()) ]
            in
            remove m;
            add (msg ~deps o (Causal.Mid.seq m));
            let root =
              match deps with
              | d :: _ when Random.State.bool rng -> d
              | _ -> mid (rand_origin ()) (rand_seq ())
            in
            discard (Causal.Mid.origin root) (Causal.Mid.seq root)));
    check_state ()
  done

let equivalence_tests =
  [
    Alcotest.test_case
      (Printf.sprintf "waiting list equals reference model (%d randomized runs)"
         equivalence_runs)
      `Quick
      (fun () ->
        for seed = 0 to equivalence_runs - 1 do
          run_equivalence seed
        done);
    Alcotest.test_case
      (Printf.sprintf
         "frontier deps at n = 8 equal the reference (%d randomized runs)"
         equivalence_runs)
      `Quick
      (fun () ->
        for seed = 0 to equivalence_runs - 1 do
          run_equivalence ~n:8 ~dense:true seed
        done);
  ]

(* -- footprint: a list keeps nothing of the messages it let go ---------- *)

(* One cycle at n = 40 through both ways out of the list.  Origin [o]'s
   next message arrives before its predecessor with a dependency on every
   other origin's latest processed message (a sender's frontier); the
   predecessor is processed and the list drained.  Then crashed origin 0
   leaves a message behind its own missing predecessor, [o] sends one that
   depends on it, and the group discards both. *)
let footprint_cycle wl d i =
  let n = 40 in
  let last o = Causal.Delivery.last_processed d (node o) in
  let take () =
    Option.map
      (fun m -> m.Causal.Causal_msg.mid)
      (Causal.Waiting_list.take_processable wl d)
  in
  let o = 1 + (i mod (n - 1)) in
  let s = last o + 1 in
  let frontier =
    List.filter_map
      (fun p -> if p = o || last p = 0 then None else Some (mid p (last p)))
      (List.init n Fun.id)
  in
  Causal.Waiting_list.add wl (msg ~deps:frontier o (s + 1));
  Alcotest.(check (option mid_testable)) "blocked" None (take ());
  Causal.Delivery.mark d (mid o s);
  Alcotest.(check (option mid_testable)) "drained" (Some (mid o (s + 1)))
    (take ());
  Causal.Delivery.mark d (mid o (s + 1));
  let orphan = mid 0 ((2 * i) + 2) in
  Causal.Waiting_list.add wl (msg 0 (Causal.Mid.seq orphan));
  Causal.Waiting_list.add wl (msg ~deps:[ orphan ] o (s + 2));
  Alcotest.(check (option mid_testable)) "parked" None (take ());
  Alcotest.(check (list mid_testable)) "discarded" [ orphan; mid o (s + 2) ]
    (Causal.Waiting_list.discard_from wl ~origin:(node 0)
       ~seq:(Causal.Mid.seq orphan - 1));
  Alcotest.(check bool) "empty" true (Causal.Waiting_list.is_empty wl)

let footprint_tests =
  [
    Alcotest.test_case "footprint is flat over add/drain/discard cycles"
      `Quick (fun () ->
        let wl = Causal.Waiting_list.create ~n:40 in
        let d = Causal.Delivery.create ~n:40 in
        let words () = Obj.reachable_words (Obj.repr wl) in
        for i = 0 to 999 do
          footprint_cycle wl d i
        done;
        let after_1000 = words () in
        for i = 1000 to 3999 do
          footprint_cycle wl d i
        done;
        Alcotest.(check int) "words after 4000 cycles = after 1000"
          after_1000 (words ()));
  ]

let suite =
  [
    ("hotpath.history", history_tests);
    ("hotpath.oldest", oldest_tests);
    ("hotpath.equivalence", equivalence_tests);
    ("hotpath.footprint", footprint_tests);
  ]
