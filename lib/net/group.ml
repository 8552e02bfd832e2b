type 'm t = {
  engine : Sim.Engine.t;
  fault : Fault.t;
  active : 'm -> bool;
  members : 'm array;
  mutable round : int;
  mutable started : bool;
  mutable round_callbacks : (round:int -> unit) list;  (* registration order *)
}

let create ~engine ~fault ~active members =
  {
    engine;
    fault;
    active;
    members;
    round = 0;
    started = false;
    round_callbacks = [];
  }

let size g = Array.length g.members
let now g = Sim.Engine.now g.engine
let member g node = g.members.(Node_id.to_int node)
let members g = Array.to_list g.members
let crashed g node = Fault.crashed g.fault ~now:(now g) node
let active g node = g.active (member g node)

let iter_live g f =
  for i = 0 to Array.length g.members - 1 do
    if not (crashed g (Node_id.of_int i)) then f g.members.(i)
  done

let start g body =
  if g.started then invalid_arg "Group.start: already started";
  g.started <- true;
  let rec tick _ =
    let round = g.round in
    body round;
    g.round <- round + 1;
    List.iter (fun callback -> callback ~round) g.round_callbacks;
    Sim.Engine.post_after g.engine (Lazy.force kind) ~delay:Sim.Ticks.round 0
  and kind =
    lazy (Sim.Engine.register g.engine ~label:"cluster.round" tick)
  in
  Sim.Engine.post_after g.engine (Lazy.force kind) ~delay:Sim.Ticks.zero 0

let on_round g callback = g.round_callbacks <- g.round_callbacks @ [ callback ]
let round g = g.round
let subrun g = g.round / 2

(* Counted by [active_members] and [quiescent]: active and not crashed. *)
let counted g i =
  g.active g.members.(i) && not (crashed g (Node_id.of_int i))

let active_members g =
  let nodes = ref [] in
  for i = Array.length g.members - 1 downto 0 do
    if counted g i then nodes := Node_id.of_int i :: !nodes
  done;
  !nodes

let quiescent g ~idle ~agree =
  let n = Array.length g.members in
  let first = ref 0 in
  while !first < n && not (counted g !first) do
    incr first
  done;
  let settled = ref true and i = ref !first in
  while !settled && !i < n do
    let m = g.members.(!i) in
    if counted g !i && not (idle m && agree g.members.(!first) m) then
      settled := false;
    incr i
  done;
  !settled

let run g ~max_rtd ~until =
  let max_ticks = Sim.Ticks.of_rtd max_rtd in
  let rtd = Sim.Ticks.of_int Sim.Ticks.per_rtd in
  let finished = ref false in
  while (not !finished) && Sim.Ticks.(now g < max_ticks) do
    let target = Sim.Ticks.add (now g) rtd in
    let target = if Sim.Ticks.(max_ticks < target) then max_ticks else target in
    Sim.Engine.run g.engine ~until:target;
    finished := until ()
  done
