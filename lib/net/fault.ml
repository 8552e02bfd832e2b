type spec = {
  crashes : (Node_id.t * Sim.Ticks.t) list;
  send_omission : float;
  recv_omission : float;
  link_loss : float;
  silenced_per_subrun : int;
  population : int;
}

let reliable =
  {
    crashes = [];
    send_omission = 0.0;
    recv_omission = 0.0;
    link_loss = 0.0;
    silenced_per_subrun = 0;
    population = 0;
  }

let omission_every k =
  if k <= 0 then invalid_arg "Fault.omission_every: k must be positive";
  let p = 1.0 /. float_of_int k /. 2.0 in
  { reliable with send_omission = p; recv_omission = p }

let with_crashes crashes spec = { spec with crashes }

let with_subrun_silence ~count ~population spec =
  if count < 0 || count >= population then
    invalid_arg "Fault.with_subrun_silence: count must be in [0, population)";
  { spec with silenced_per_subrun = count; population }

let json_of_spec spec =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"crashes\":[";
  List.iteri
    (fun i (node, time) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "[%d,%d]" (Node_id.to_int node)
        (Sim.Ticks.to_int time))
    spec.crashes;
  Printf.bprintf buf
    "],\"send_omission\":%s,\"recv_omission\":%s,\"link_loss\":%s,\"silenced_per_subrun\":%d,\"population\":%d}"
    (Sim.Json.float_str spec.send_omission)
    (Sim.Json.float_str spec.recv_omission)
    (Sim.Json.float_str spec.link_loss)
    spec.silenced_per_subrun spec.population;
  Buffer.contents buf

type t = {
  spec : spec;
  rng : Sim.Rng.t;
  (* Crash time in ticks per node, indexed by [Node_id.to_int]; [never]
     beyond the array or for a node with no crash.  [crashed] runs on every
     send and receive of every packet copy, so it is an array read rather
     than a hash probe. *)
  mutable crash_time : int array;
  mutable silenced_subrun : int;  (* which subrun the cached set is for *)
  mutable silenced : Node_id.Set.t;
}

(* Ticks are never negative. *)
let never = -1

let set_crash_time t node time =
  let i = Node_id.to_int node in
  let len = Array.length t.crash_time in
  if i >= len then begin
    let grown = Array.make (max (i + 1) (2 * len)) never in
    Array.blit t.crash_time 0 grown 0 len;
    t.crash_time <- grown
  end;
  t.crash_time.(i) <- Sim.Ticks.to_int time

let create spec ~rng =
  let t =
    {
      spec;
      rng;
      crash_time = [||];
      silenced_subrun = -1;
      silenced = Node_id.Set.empty;
    }
  in
  (* A node listed twice keeps its last time. *)
  List.iter (fun (node, time) -> set_crash_time t node time) spec.crashes;
  t

let spec t = t.spec

let crashed t ~now node =
  let i = Node_id.to_int node in
  i < Array.length t.crash_time
  &&
  let time = t.crash_time.(i) in
  time <> never && time <= Sim.Ticks.to_int now

let crash_now t ~now node =
  if not (crashed t ~now node) then set_crash_time t node now

(* Resample the silenced set lazily at each subrun boundary. *)
let silenced_now t ~now node =
  if t.spec.silenced_per_subrun = 0 then false
  else begin
    let subrun = Sim.Ticks.to_int now / Sim.Ticks.per_rtd in
    if subrun <> t.silenced_subrun then begin
      t.silenced_subrun <- subrun;
      let ids = Array.init t.spec.population Node_id.of_int in
      Sim.Rng.shuffle t.rng ids;
      let chosen = Array.sub ids 0 t.spec.silenced_per_subrun in
      t.silenced <- Node_id.Set.of_list (Array.to_list chosen)
    end;
    Node_id.Set.mem node t.silenced
  end

let drop_on_send t ~now node =
  crashed t ~now node
  || silenced_now t ~now node
  || Sim.Rng.bool t.rng t.spec.send_omission

let drop_on_link t = Sim.Rng.bool t.rng t.spec.link_loss

let drop_on_recv t ~now node =
  crashed t ~now node || Sim.Rng.bool t.rng t.spec.recv_omission

let alive t ~now ~all = List.filter (fun node -> not (crashed t ~now node)) all
