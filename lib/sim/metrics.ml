(* %.12g keeps full double precision while printing integral values without
   a trailing ".0": the JSON is a pure function of the recorded samples. *)
let float_str = Printf.sprintf "%.12g"

type gauge = { mutable last : int; mutable peak : int }

type histogram = {
  mutable samples : float list;  (* newest first *)
  mutable h_count : int;
  mutable sum : float;
}

type registry = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

type t = Null | Reg of registry

let null = Null

let create () =
  Reg
    {
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 16;
      histograms = Hashtbl.create 16;
    }

let enabled = function Null -> false | Reg _ -> true

let incr ?(by = 1) t name =
  match t with
  | Null -> ()
  | Reg r -> (
      match Hashtbl.find_opt r.counters name with
      | Some cell -> cell := !cell + by
      | None -> Hashtbl.replace r.counters name (ref by))

let set_gauge t name value =
  match t with
  | Null -> ()
  | Reg r -> (
      match Hashtbl.find_opt r.gauges name with
      | Some g ->
          g.last <- value;
          if value > g.peak then g.peak <- value
      | None -> Hashtbl.replace r.gauges name { last = value; peak = value })

let observe t name value =
  match t with
  | Null -> ()
  | Reg r -> (
      match Hashtbl.find_opt r.histograms name with
      | Some h ->
          h.samples <- value :: h.samples;
          h.h_count <- h.h_count + 1;
          h.sum <- h.sum +. value
      | None ->
          Hashtbl.replace r.histograms name
            { samples = [ value ]; h_count = 1; sum = value })

(* -- read-back (tests and reports) --------------------------------------- *)

let counter t name =
  match t with
  | Null -> 0
  | Reg r -> (
      match Hashtbl.find_opt r.counters name with Some c -> !c | None -> 0)

let gauge_last t name =
  match t with
  | Null -> None
  | Reg r -> Option.map (fun g -> g.last) (Hashtbl.find_opt r.gauges name)

let gauge_peak t name =
  match t with
  | Null -> None
  | Reg r -> Option.map (fun g -> g.peak) (Hashtbl.find_opt r.gauges name)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let quantile sorted count q =
  (* Nearest-rank on the ascending sample array: deterministic and exact for
     the small sample counts a simulation run produces. *)
  let rank = int_of_float (Float.ceil (q *. float_of_int count)) in
  let rank = Stdlib.min count (Stdlib.max 1 rank) in
  sorted.(rank - 1)

(* [sorted] is ascending and non-empty; [sum] is the sum of its samples. *)
let of_sorted sorted ~sum =
  let count = Array.length sorted in
  {
    count;
    mean = sum /. float_of_int count;
    min = sorted.(0);
    max = sorted.(count - 1);
    p50 = quantile sorted count 0.50;
    p95 = quantile sorted count 0.95;
  }

(* The running sum, not a re-summation of the sorted samples: histogram
   means are a function of the recording order. *)
let summarize h =
  let sorted = Array.of_list h.samples in
  Array.sort Float.compare sorted;
  of_sorted sorted ~sum:h.sum

let summary_of_ints = function
  | [] -> { count = 0; mean = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p95 = 0.0 }
  | samples ->
      (* Sorted as ints, then copied into an unboxed float array: no float
         is boxed per comparison.  An int sum is exact in any order. *)
      let ints = Array.of_list samples in
      Array.sort Int.compare ints;
      let count = Array.length ints in
      let sorted = Array.make count 0.0 in
      for i = 0 to count - 1 do
        sorted.(i) <- float_of_int ints.(i)
      done;
      of_sorted sorted ~sum:(float_of_int (Array.fold_left ( + ) 0 ints))

let histogram t name =
  match t with
  | Null -> None
  | Reg r ->
      Option.map summarize (Hashtbl.find_opt r.histograms name)

let sorted_names table =
  Hashtbl.fold (fun name _ acc -> name :: acc) table []
  |> List.sort String.compare

(* -- JSON ----------------------------------------------------------------- *)

let buf_json t buf =
  match t with
  | Null -> Buffer.add_string buf "{}"
  | Reg r ->
      Buffer.add_string buf "{\"counters\":{";
      List.iteri
        (fun i name ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "\"%s\":%d" name !(Hashtbl.find r.counters name))
        (sorted_names r.counters);
      Buffer.add_string buf "},\"gauges\":{";
      List.iteri
        (fun i name ->
          if i > 0 then Buffer.add_char buf ',';
          let g = Hashtbl.find r.gauges name in
          Printf.bprintf buf "\"%s\":{\"last\":%d,\"peak\":%d}" name g.last
            g.peak)
        (sorted_names r.gauges);
      Buffer.add_string buf "},\"histograms\":{";
      List.iteri
        (fun i name ->
          if i > 0 then Buffer.add_char buf ',';
          let s = summarize (Hashtbl.find r.histograms name) in
          Printf.bprintf buf
            "\"%s\":{\"count\":%d,\"mean\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s}"
            name s.count (float_str s.mean) (float_str s.min) (float_str s.max)
            (float_str s.p50) (float_str s.p95))
        (sorted_names r.histograms);
      Buffer.add_string buf "}}"

let to_json t =
  let buf = Buffer.create 512 in
  buf_json t buf;
  Buffer.contents buf

(* -- human rendering ------------------------------------------------------ *)

let pp ppf t =
  match t with
  | Null -> Format.pp_print_string ppf "metrics disabled"
  | Reg r ->
      Format.fprintf ppf "@[<v>";
      List.iter
        (fun name ->
          Format.fprintf ppf "%-32s %d@," name !(Hashtbl.find r.counters name))
        (sorted_names r.counters);
      List.iter
        (fun name ->
          let g = Hashtbl.find r.gauges name in
          Format.fprintf ppf "%-32s last=%d peak=%d@," name g.last g.peak)
        (sorted_names r.gauges);
      List.iter
        (fun name ->
          let s = summarize (Hashtbl.find r.histograms name) in
          Format.fprintf ppf
            "%-32s count=%d mean=%.3f min=%.3f max=%.3f p50=%.3f p95=%.3f@,"
            name s.count s.mean s.min s.max s.p50 s.p95)
        (sorted_names r.histograms);
      Format.fprintf ppf "@]"
