(* Hierarchical span profiler.  See prof.mli for the contract.

   One global mutable tree + an open-span stack.  The disabled-mode cost
   of a probe is a single [!on] branch; everything below the branch only
   runs while profiling.  Nothing here draws from any RNG, so enabling
   the profiler cannot change simulation outputs. *)

(* Growable float array for per-invocation latency samples: cheaper and
   flatter than consing a list per probe exit. *)
type samples = { mutable buf : float array; mutable len : int }

let samples_make () = { buf = [||]; len = 0 }

let samples_push s x =
  if s.len = Array.length s.buf then begin
    let cap = max 16 (2 * Array.length s.buf) in
    let buf = Array.make cap 0. in
    Array.blit s.buf 0 buf 0 s.len;
    s.buf <- buf
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

type node = {
  name : string;
  mutable count : int;
  mutable total_ns : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable promoted_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  lat : samples;
  node_counters : (string, int ref) Hashtbl.t;
  child_by_name : (string, node) Hashtbl.t;
  mutable children_rev : node list;  (* first-entered order, reversed *)
}

let node_make name =
  {
    name;
    count = 0;
    total_ns = 0.;
    minor_words = 0.;
    major_words = 0.;
    promoted_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    lat = samples_make ();
    node_counters = Hashtbl.create 4;
    child_by_name = Hashtbl.create 8;
    children_rev = [];
  }

type frame = { node : node; t0 : float; g0 : Gc.stat }

let on = ref false
let stack : frame list ref = ref []
let root_node : node option ref = ref None

let enabled () = !on

let push_frame node =
  stack := { node; t0 = Unix.gettimeofday (); g0 = Gc.quick_stat () } :: !stack

let enable () =
  on := true;
  stack := [];
  let root = node_make "root" in
  root_node := Some root;
  push_frame root

let disable () =
  on := false;
  stack := [];
  root_node := None

let enter name =
  if !on then begin
    match !stack with
    | [] -> invalid_arg "Prof.enter: profiler enabled but no root span"
    | { node = parent; _ } :: _ ->
        let node =
          match Hashtbl.find_opt parent.child_by_name name with
          | Some n -> n
          | None ->
              let n = node_make name in
              Hashtbl.add parent.child_by_name name n;
              parent.children_rev <- n :: parent.children_rev;
              n
        in
        push_frame node
  end

let close_frame { node; t0; g0 } =
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  let ns = (t1 -. t0) *. 1e9 in
  node.count <- node.count + 1;
  node.total_ns <- node.total_ns +. ns;
  node.minor_words <- node.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  node.major_words <- node.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
  node.promoted_words <-
    node.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  node.minor_collections <-
    node.minor_collections + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  node.major_collections <-
    node.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  samples_push node.lat ns

let exit () =
  if !on then begin
    match !stack with
    | [] | [ _ ] -> invalid_arg "Prof.exit: no open span (unbalanced probe)"
    | frame :: rest ->
        close_frame frame;
        stack := rest
  end

let span name f =
  if not !on then f ()
  else begin
    enter name;
    match f () with
    | v ->
        exit ();
        v
    | exception e ->
        exit ();
        raise e
  end

let count ?(by = 1) name =
  if !on then begin
    match !stack with
    | [] -> invalid_arg "Prof.count: profiler enabled but no root span"
    | { node; _ } :: _ -> (
        match Hashtbl.find_opt node.node_counters name with
        | Some r -> r := !r + by
        | None -> Hashtbl.add node.node_counters name (ref by))
  end

(* ------------------------------------------------------------------ *)
(* Reports *)

type stat = {
  name : string;
  count : int;
  total_ns : float;
  self_ns : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  self_minor_words : float;
  minor_collections : int;
  major_collections : int;
  latency : Stats.Summary.t;
  counters : (string * int) list;
  children : stat list;
}

type report = { root_stat : stat }

let rec stat_of_node (n : node) : stat =
  let children = List.rev_map stat_of_node n.children_rev in
  let child_ns = List.fold_left (fun a (c : stat) -> a +. c.total_ns) 0. children in
  let child_mw =
    List.fold_left (fun a (c : stat) -> a +. c.minor_words) 0. children
  in
  let counters =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) n.node_counters []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    name = n.name;
    count = n.count;
    total_ns = n.total_ns;
    self_ns = n.total_ns -. child_ns;
    minor_words = n.minor_words;
    major_words = n.major_words;
    promoted_words = n.promoted_words;
    self_minor_words = n.minor_words -. child_mw;
    minor_collections = n.minor_collections;
    major_collections = n.major_collections;
    latency = Stats.Summary.interpolated n.lat.buf n.lat.len;
    counters;
    children;
  }

let capture () =
  if not !on then invalid_arg "Prof.capture: profiler is not enabled";
  (match !stack with
  | [ root_frame ] ->
      close_frame root_frame;
      stack := []
  | [] -> invalid_arg "Prof.capture: profiler enabled but no root span"
  | frames ->
      let open_spans =
        frames |> List.map (fun f -> f.node.name) |> List.rev |> String.concat " > "
      in
      invalid_arg
        (Printf.sprintf "Prof.capture: unbalanced spans still open: %s" open_spans));
  let root =
    match !root_node with
    | Some n -> n
    | None -> invalid_arg "Prof.capture: profiler enabled but no root span"
  in
  let report = { root_stat = stat_of_node root } in
  disable ();
  report

let root r = r.root_stat
let wall_ns r = r.root_stat.total_ns

let coverage r =
  let root = r.root_stat in
  if root.total_ns <= 0. then 1.
  else
    let c = 1. -. (root.self_ns /. root.total_ns) in
    if c < 0. then 0. else if c > 1. then 1. else c

(* ------------------------------------------------------------------ *)
(* JSON.  Hand-rolled like Metrics/Campaign: single line, fields in a
   fixed order, names and floats written by [Json]. *)

let buf_counters b counters =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Json.buf_string b k;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int v))
    counters;
  Buffer.add_char b '}'

let rec buf_timed_node b (s : stat) =
  Buffer.add_string b "{\"name\":";
  Json.buf_string b s.name;
  Buffer.add_string b ",\"count\":";
  Buffer.add_string b (string_of_int s.count);
  Buffer.add_string b ",\"total_ns\":";
  Json.buf_float b s.total_ns;
  Buffer.add_string b ",\"self_ns\":";
  Json.buf_float b s.self_ns;
  Buffer.add_string b ",\"minor_words\":";
  Json.buf_float b s.minor_words;
  Buffer.add_string b ",\"major_words\":";
  Json.buf_float b s.major_words;
  Buffer.add_string b ",\"promoted_words\":";
  Json.buf_float b s.promoted_words;
  Buffer.add_string b ",\"self_minor_words\":";
  Json.buf_float b s.self_minor_words;
  Buffer.add_string b ",\"minor_collections\":";
  Buffer.add_string b (string_of_int s.minor_collections);
  Buffer.add_string b ",\"major_collections\":";
  Buffer.add_string b (string_of_int s.major_collections);
  Buffer.add_string b ",\"latency_ns\":{\"count\":";
  Buffer.add_string b (string_of_int s.latency.Stats.Summary.count);
  Buffer.add_string b ",\"mean\":";
  Json.buf_float b s.latency.Stats.Summary.mean;
  Buffer.add_string b ",\"p50\":";
  Json.buf_float b s.latency.Stats.Summary.p50;
  Buffer.add_string b ",\"p95\":";
  Json.buf_float b s.latency.Stats.Summary.p95;
  Buffer.add_string b ",\"max\":";
  Json.buf_float b s.latency.Stats.Summary.max;
  Buffer.add_string b "},\"counters\":";
  buf_counters b s.counters;
  Buffer.add_string b ",\"children\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      buf_timed_node b c)
    s.children;
  Buffer.add_string b "]}"

let report_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"urcgc.prof/1\",\"wall_ns\":";
  Json.buf_float b (wall_ns r);
  Buffer.add_string b ",\"coverage\":";
  Json.buf_float b (coverage r);
  Buffer.add_string b ",\"root\":";
  buf_timed_node b r.root_stat;
  Buffer.add_string b "}\n";
  Buffer.contents b

let rec buf_structural_node b (s : stat) =
  Buffer.add_string b "{\"name\":";
  Json.buf_string b s.name;
  Buffer.add_string b ",\"count\":";
  Buffer.add_string b (string_of_int s.count);
  Buffer.add_string b ",\"counters\":";
  buf_counters b s.counters;
  Buffer.add_string b ",\"children\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      buf_structural_node b c)
    s.children;
  Buffer.add_string b "]}"

let structural_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"schema\":\"urcgc.prof.structural/1\",\"root\":";
  buf_structural_node b r.root_stat;
  Buffer.add_string b "}\n";
  Buffer.contents b

let folded r =
  let b = Buffer.create 1024 in
  let rec go path (s : stat) =
    let path = if path = "" then s.name else path ^ ";" ^ s.name in
    let self = int_of_float (Float.max 0. s.self_ns) in
    Buffer.add_string b path;
    Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int self);
    Buffer.add_char b '\n';
    List.iter (go path) s.children
  in
  go "" r.root_stat;
  Buffer.contents b

let pp_summary ppf r =
  let spans = ref [] in
  let rec collect path (s : stat) =
    let path = if path = "" then s.name else path ^ ";" ^ s.name in
    if s.name <> "root" then spans := (path, s) :: !spans;
    List.iter (collect path) s.children
  in
  collect "" r.root_stat;
  let top =
    List.sort
      (fun (_, (a : stat)) (_, (b : stat)) -> compare b.self_ns a.self_ns)
      !spans
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  Format.fprintf ppf "profile: wall %.3f ms, coverage %.1f%%, %d spans@."
    (wall_ns r /. 1e6)
    (100. *. coverage r)
    (List.length !spans);
  Format.fprintf ppf "  %-40s %10s %12s %14s@." "span (top by self time)" "count"
    "self ms" "self minor wds";
  List.iter
    (fun (path, (s : stat)) ->
      Format.fprintf ppf "  %-40s %10d %12.3f %14.0f@." path s.count
        (s.self_ns /. 1e6) s.self_minor_words)
    (take 10 top)
