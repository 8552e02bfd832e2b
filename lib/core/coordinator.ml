let rotation ~alive ~subrun =
  let n = Array.length alive in
  if not (Array.exists Fun.id alive) then
    invalid_arg "Coordinator.rotation: no process alive";
  let rec first_alive i steps =
    if steps > n then invalid_arg "Coordinator.rotation: no process alive"
    else if alive.(i) then Net.Node_id.of_int i
    else first_alive ((i + 1) mod n) (steps + 1)
  in
  first_alive (((subrun mod n) + n) mod n) 0

let merge_prev prev requests =
  List.fold_left
    (fun best (r : Wire.request) ->
      if Decision.newer r.prev_decision ~than:best then r.prev_decision else best)
    prev requests

(* Fold one request into the stability-cycle accumulators. *)
let contribute ~heard ~acc_stable ~acc_min_waiting (r : Wire.request) =
  let n = Array.length acc_stable in
  heard.(Net.Node_id.to_int r.sender) <- true;
  for j = 0 to n - 1 do
    if r.last_processed.(j) < acc_stable.(j) then
      acc_stable.(j) <- r.last_processed.(j);
    match r.waiting.(j) with
    | None -> ()
    | Some mid ->
        let seq = Causal.Mid.seq mid in
        if acc_min_waiting.(j) = 0 || seq < acc_min_waiting.(j) then
          acc_min_waiting.(j) <- seq
  done

let compute ~config ~subrun ~coordinator ~prev ~requests =
  let n = config.Config.n in
  let k = config.Config.k in
  let got_request = Array.make n false in
  List.iter
    (fun (r : Wire.request) -> got_request.(Net.Node_id.to_int r.sender) <- true)
    requests;
  (* Group composition: silent alive processes accumulate attempts; at K they
     are declared crashed and removed ("process_state = false"). *)
  let attempts = Array.copy prev.Decision.attempts in
  let alive = Array.copy prev.Decision.alive in
  for i = 0 to n - 1 do
    if alive.(i) then
      if got_request.(i) then attempts.(i) <- 0
      else begin
        attempts.(i) <- attempts.(i) + 1;
        if attempts.(i) >= k then alive.(i) <- false
      end
  done;
  (* Stability cycle: accumulate per-origin minima over the processes heard
     since the last full-group decision.  Each subrun typically hears only a
     partial set; the cycle closes when the heard set covers every alive
     process, and only then may histories be cleaned. *)
  let heard = Array.copy prev.Decision.heard in
  let acc_stable = Array.copy prev.Decision.acc_stable in
  let acc_min_waiting = Array.copy prev.Decision.acc_min_waiting in
  List.iter (contribute ~heard ~acc_stable ~acc_min_waiting) requests;
  let full_group =
    let covered = ref true in
    for i = 0 to n - 1 do
      if alive.(i) && not heard.(i) then covered := false
    done;
    !covered
  in
  (* Most updated process per origin.  Monotone while the holder is alive;
     when the holder is declared crashed the maximum is rebuilt from current
     contributors, which is what makes orphaned sequences detectable
     (min_waiting - max_processed > 1 on a later full-group decision). *)
  let max_processed = Array.copy prev.Decision.max_processed in
  let most_updated = Array.copy prev.Decision.most_updated in
  for j = 0 to n - 1 do
    if not alive.(Net.Node_id.to_int most_updated.(j)) then begin
      max_processed.(j) <- 0;
      most_updated.(j) <- coordinator
    end
  done;
  let consider (r : Wire.request) =
    for j = 0 to n - 1 do
      if r.Wire.last_processed.(j) > max_processed.(j) then begin
        max_processed.(j) <- r.Wire.last_processed.(j);
        most_updated.(j) <- r.Wire.sender
      end
    done
  in
  List.iter consider requests;
  if full_group then begin
    (* Publish the closed cycle... *)
    let stable = Array.copy prev.Decision.stable in
    for j = 0 to n - 1 do
      if acc_stable.(j) <> max_int && acc_stable.(j) > stable.(j) then
        stable.(j) <- acc_stable.(j)
    done;
    let min_waiting = Array.copy acc_min_waiting in
    (* ... and restart the accumulators empty: re-seeding them with this
       subrun's contributions would drag today's minima into the next
       cycle's cut and keep stability one subrun staler than necessary. *)
    let heard' = Array.make n false in
    let acc_stable' = Array.make n max_int in
    let acc_min_waiting' = Array.make n 0 in
    {
      Decision.subrun;
      coordinator;
      full_group = true;
      stable;
      max_processed;
      most_updated;
      min_waiting;
      attempts;
      alive;
      heard = heard';
      acc_stable = acc_stable';
      acc_min_waiting = acc_min_waiting';
    }
  end
  else
    {
      Decision.subrun;
      coordinator;
      full_group = false;
      stable = Array.copy prev.Decision.stable;
      max_processed;
      most_updated;
      min_waiting = Array.copy prev.Decision.min_waiting;
      attempts;
      alive;
      heard;
      acc_stable;
      acc_min_waiting;
    }
