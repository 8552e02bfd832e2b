type t = { label : string; points : (float * float) list }

let make ~label points = { label; points }

let of_ints ~label points =
  { label; points = List.map (fun (x, y) -> (float_of_int x, float_of_int y)) points }

let length t = List.length t.points

let y_max t = List.fold_left (fun acc (_, y) -> Float.max acc y) 0.0 t.points

let y_at t x =
  List.find_map (fun (px, py) -> if px = x then Some py else None) t.points

let map_y t ~f = { t with points = List.map (fun (x, y) -> (x, f y)) t.points }

let xs_union series =
  List.concat_map (fun s -> List.map fst s.points) series
  |> List.sort_uniq Float.compare

let pp_table ppf series =
  let xs = xs_union series in
  Format.fprintf ppf "%12s" "x";
  List.iter (fun s -> Format.fprintf ppf " %14s" s.label) series;
  Format.pp_print_newline ppf ();
  List.iter
    (fun x ->
      Format.fprintf ppf "%12.4g" x;
      List.iter
        (fun s ->
          match y_at s x with
          | Some y -> Format.fprintf ppf " %14.4g" y
          | None -> Format.fprintf ppf " %14s" "-")
        series;
      Format.pp_print_newline ppf ())
    xs

let ascii_plot ?(width = 64) ?(height = 16) ppf series =
  let xs = xs_union series in
  match xs with
  | [] -> Format.fprintf ppf "(empty plot)@."
  | _ ->
      let x_min = List.hd xs and x_max = List.nth xs (List.length xs - 1) in
      let y_top =
        List.fold_left (fun acc s -> Float.max acc (y_max s)) 1e-9 series
      in
      let grid = Array.make_matrix height width ' ' in
      let marks = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |] in
      List.iteri
        (fun i s ->
          let mark = marks.(i mod Array.length marks) in
          List.iter
            (fun (x, y) ->
              let fx =
                if x_max = x_min then 0.0 else (x -. x_min) /. (x_max -. x_min)
              in
              let fy = y /. y_top in
              let col = min (width - 1) (int_of_float (fx *. float_of_int (width - 1))) in
              let row =
                height - 1
                - min (height - 1) (int_of_float (fy *. float_of_int (height - 1)))
              in
              grid.(row).(col) <- mark)
            s.points)
        series;
      Format.fprintf ppf "%8.3g +" y_top;
      Format.pp_print_newline ppf ();
      Array.iter
        (fun row ->
          Format.fprintf ppf "%8s |%s" "" (String.init width (Array.get row));
          Format.pp_print_newline ppf ())
        grid;
      Format.fprintf ppf "%8s +%s" "" (String.make width '-');
      Format.pp_print_newline ppf ();
      let x_min_label = Printf.sprintf "%.4g" x_min in
      let x_max_label = Printf.sprintf "%.4g" x_max in
      Format.fprintf ppf "%8s  %s%*s" "" x_min_label
        (max 1 (width - String.length x_min_label))
        x_max_label;
      Format.pp_print_newline ppf ();
      List.iteri
        (fun i s ->
          Format.fprintf ppf "%8s  %c = %s" "" marks.(i mod Array.length marks) s.label;
          Format.pp_print_newline ppf ())
        series
