type gauge = { mutable last : int; mutable peak : int }

(* Samples in a flat float buffer, [buf.(0 .. len - 1)]; [sum] is their
   running sum in recording order. *)
type histogram = {
  mutable buf : float array;
  mutable len : int;
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
          if h.len = Array.length h.buf then begin
            let buf = Array.make (2 * h.len) 0.0 in
            Array.blit h.buf 0 buf 0 h.len;
            h.buf <- buf
          end;
          h.buf.(h.len) <- value;
          h.len <- h.len + 1;
          h.sum <- h.sum +. value
      | None ->
          Hashtbl.replace r.histograms name
            { buf = Array.make 16 value; len = 1; sum = value })

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

(* Nearest-rank quantiles and the running sum's mean.  Sorting the buffer
   in place is invisible: a summary reads only the samples and the sum. *)
let summarize h = Stats.Summary.nearest_rank h.buf h.len ~sum:h.sum

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
            name s.count (Json.float_str s.mean) (Json.float_str s.min)
            (Json.float_str s.max) (Json.float_str s.p50) (Json.float_str s.p95))
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
