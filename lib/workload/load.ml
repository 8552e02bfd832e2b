type deps_mode = Frontier | Own_chain | Random_frontier of float

type t = {
  rate : float;
  total_messages : int option;
  payload_size : int;
  deps_mode : deps_mode;
  senders : Net.Node_id.t list option;
}

let make ?total_messages ?(payload_size = 64) ?(deps_mode = Frontier) ?senders
    ~rate () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Load.make: rate must be in [0,1]";
  if payload_size < 0 then invalid_arg "Load.make: negative payload size";
  (match total_messages with
  | Some cap when cap < 0 -> invalid_arg "Load.make: negative message cap"
  | Some _ | None -> ());
  { rate; total_messages; payload_size; deps_mode; senders }

type injector = {
  load : t;
  rng : Sim.Rng.t;
  active : Net.Node_id.t -> bool;
  submit : Net.Node_id.t -> int -> unit;
  senders : Net.Node_id.t list;
  mutable produced : int;
}

let injector (load : t) ~rng group ~submit =
  let senders =
    match load.senders with
    | Some senders -> senders
    | None -> Net.Node_id.group (Net.Group.size group)
  in
  { load; rng; active = Net.Group.active group; submit; senders; produced = 0 }

let cap_reached i =
  match i.load.total_messages with None -> false | Some cap -> i.produced >= cap

let rec inject_from i = function
  | [] -> ()
  | node :: rest ->
      if (not (cap_reached i)) && Sim.Rng.bool i.rng i.load.rate && i.active node
      then begin
        i.produced <- i.produced + 1;
        i.submit node i.produced
      end;
      inject_from i rest

let inject i ~round:_ = inject_from i i.senders

let drive ?sample i group ~start ~quiescent ~max_rtd =
  let hook name f =
    Net.Group.on_round group (fun ~round ->
        if !Sim.Prof.on then Sim.Prof.enter name;
        f ~round;
        if !Sim.Prof.on then Sim.Prof.exit ())
  in
  hook "runner.inject" (inject i);
  Option.iter (hook "runner.sample") sample;
  start ();
  Sim.Prof.span "runner.run" (fun () ->
      Net.Group.run group ~max_rtd ~until:(fun () ->
          cap_reached i && quiescent ()))
