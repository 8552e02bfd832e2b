type verdict = {
  causal_ok : bool;
  atomicity_ok : bool;
  zombie_ok : bool;
  views_ok : bool;
  partition_ok : bool;
  violations : string list;
}

let ok v =
  v.causal_ok && v.atomicity_ok && v.zombie_ok && v.views_ok && v.partition_ok

let check_causal ~n deliveries ~violations =
  let trackers = Hashtbl.create n in
  let tracker node =
    match Hashtbl.find_opt trackers node with
    | Some t -> t
    | None ->
        let t = Causal.Delivery.create ~n in
        Hashtbl.replace trackers node t;
        t
  in
  let causal_ok = ref true in
  List.iter
    (fun { Run_log.node; msg; at } ->
      let t = tracker node in
      if Causal.Delivery.processable t msg then
        Causal.Delivery.mark t msg.Causal.Causal_msg.mid
      else begin
        causal_ok := false;
        violations :=
          Format.asprintf
            "%a processed %a at %a before its causal predecessors (missing %a)"
            Net.Node_id.pp node Causal.Mid.pp msg.Causal.Causal_msg.mid
            Sim.Ticks.pp at
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               Causal.Mid.pp)
            (Causal.Delivery.missing t msg)
          :: !violations;
        (* Keep replaying from the observed state to catch further issues. *)
        Causal.Delivery.force_skip_to t
          ~origin:(Causal.Mid.origin msg.Causal.Causal_msg.mid)
          ~seq:(Causal.Mid.seq msg.Causal.Causal_msg.mid)
      end)
    deliveries;
  !causal_ok

let check_atomicity ~survivors deliveries ~violations =
  let processed_by = Hashtbl.create 16 in
  List.iter
    (fun node -> Hashtbl.replace processed_by node Causal.Mid.Set.empty)
    survivors;
  List.iter
    (fun { Run_log.node; msg; _ } ->
      match Hashtbl.find_opt processed_by node with
      | None -> ()
      | Some set ->
          Hashtbl.replace processed_by node
            (Causal.Mid.Set.add msg.Causal.Causal_msg.mid set))
    deliveries;
  match survivors with
  | [] -> true
  | first :: rest ->
      let reference = Hashtbl.find processed_by first in
      let atomicity_ok = ref true in
      List.iter
        (fun node ->
          let set = Hashtbl.find processed_by node in
          if not (Causal.Mid.Set.equal set reference) then begin
            atomicity_ok := false;
            let only_ref = Causal.Mid.Set.diff reference set in
            let only_node = Causal.Mid.Set.diff set reference in
            violations :=
              Format.asprintf
                "atomicity: %a and %a disagree (%d messages only at %a, %d \
                 only at %a)"
                Net.Node_id.pp first Net.Node_id.pp node
                (Causal.Mid.Set.cardinal only_ref)
                Net.Node_id.pp first
                (Causal.Mid.Set.cardinal only_node)
                Net.Node_id.pp node
              :: !violations
          end)
        rest;
      !atomicity_ok

let check_no_zombie cluster deliveries violations =
  let actives = Net.Node_id.Set.of_list (Urcgc.Cluster.active_members cluster) in
  (* Only survivors' discards witness group agreement.  A member that later
     departed may have purged orphans under a decision nobody else holds —
     the solo "full-group" decision of a partitioned node is the canonical
     case — and charging its discards against the survivors would flag
     perfectly uniform runs. *)
  let discarded =
    List.fold_left
      (fun acc (node, mids, _) ->
        if Net.Node_id.Set.mem node actives then
          List.fold_left (fun acc mid -> Causal.Mid.Set.add mid acc) acc mids
        else acc)
      Causal.Mid.Set.empty
      (Urcgc.Cluster.discards cluster)
  in
  (* First departure tick per node: a member that left must never process
     anything at a strictly later tick (same-tick events belong to the
     action batch that contained the departure). *)
  let left_at = Hashtbl.create 8 in
  List.iter
    (fun { Urcgc.Cluster.who; when_; _ } ->
      if not (Hashtbl.mem left_at who) then Hashtbl.replace left_at who when_)
    (Urcgc.Cluster.departures cluster);
  let ok = ref true in
  List.iter
    (fun { Urcgc.Cluster.node; msg; at } ->
      if
        Net.Node_id.Set.mem node actives
        && Causal.Mid.Set.mem msg.Causal.Causal_msg.mid discarded
      then begin
        ok := false;
        violations :=
          Format.asprintf "%a processed discarded message %a" Net.Node_id.pp
            node Causal.Mid.pp msg.Causal.Causal_msg.mid
          :: !violations
      end;
      match Hashtbl.find_opt left_at node with
      | Some left when Sim.Ticks.compare at left > 0 ->
          ok := false;
          violations :=
            Format.asprintf "zombie: %a processed %a at %a after leaving at %a"
              Net.Node_id.pp node Causal.Mid.pp msg.Causal.Causal_msg.mid
              Sim.Ticks.pp at Sim.Ticks.pp left
            :: !violations
      | _ -> ())
    deliveries;
  !ok

(* A [Partitioned] departure means a member's adopted view degenerated to
   itself alone: the group lost its primary partition.  Within the fault
   budget (silenced + crashed <= t) this can never happen — at least
   n - t >= t + 1 members keep agreeing on a common view — so any such
   departure is the detectable liveness cost of beyond-budget fault load. *)
let check_partition cluster violations =
  let ok = ref true in
  List.iter
    (fun { Urcgc.Cluster.who; why; when_ } ->
      if why = Urcgc.Member.Partitioned then begin
        ok := false;
        violations :=
          Format.asprintf
            "liveness: %a departed at %a with a solo view — the group lost \
             its primary partition"
            Net.Node_id.pp who Sim.Ticks.pp when_
          :: !violations
      end)
    (Urcgc.Cluster.departures cluster);
  !ok

(* At quiescence every surviving member must hold the same group view
   (assumption 4 of Section 4: "the algorithm guarantees that all the
   active processes in G achieve the same knowledge about the group"). *)
let check_views cluster violations =
  let actives = Urcgc.Cluster.active_members cluster in
  let views =
    List.map
      (fun node ->
        (node, Urcgc.Member.view (Urcgc.Cluster.member cluster node)))
      actives
  in
  match views with
  | [] -> true
  | (first_node, first) :: rest ->
      let ok = ref true in
      List.iter
        (fun (node, view) ->
          if not (Causal.Group_view.equal view first) then begin
            ok := false;
            violations :=
              Format.asprintf "group views diverge: %a holds %a but %a holds %a"
                Net.Node_id.pp first_node Causal.Group_view.pp first
                Net.Node_id.pp node Causal.Group_view.pp view
              :: !violations
          end)
        rest;
      !ok

let check_log cluster deliveries =
  let violations = ref [] in
  let causal_ok =
    check_causal ~n:(Urcgc.Cluster.config cluster).Urcgc.Config.n deliveries
      ~violations
  in
  let atomicity_ok =
    check_atomicity ~survivors:(Urcgc.Cluster.active_members cluster)
      deliveries ~violations
  in
  let zombie_ok = check_no_zombie cluster deliveries violations in
  let views_ok = check_views cluster violations in
  let partition_ok = check_partition cluster violations in
  {
    causal_ok;
    atomicity_ok;
    zombie_ok;
    views_ok;
    partition_ok;
    violations = List.rev !violations;
  }

(* The log is rebuilt from its column chunks on every read: read it once. *)
let check cluster = check_log cluster (Urcgc.Cluster.deliveries cluster)

let pp ppf v =
  if ok v then Format.pp_print_string ppf "all invariants hold"
  else
    Format.fprintf ppf "@[<v 2>violations:@ %a@]"
      (Format.pp_print_list Format.pp_print_string)
      v.violations
