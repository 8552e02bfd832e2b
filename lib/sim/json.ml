(* Minimal strict JSON reader for the offline trace analyzer, and the one
   writer of JSON strings and floats.

   The repo's JSON exports (trace JSONL, campaign reports, the analysis
   report itself) are hand-serialized for byte determinism through
   [buf_string] and [float_str]; this is the matching reader.  It is
   deliberately small and strict: the full value must parse with nothing
   but whitespace after it, objects keep their field order (the analyzer
   checks the documented fixed order), and malformed input yields a
   positioned error instead of a best-effort value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of int * string

let error pos fmt = Printf.ksprintf (fun msg -> raise (Error (pos, msg))) fmt

type state = { input : string; mutable pos : int }

let peek s = if s.pos < String.length s.input then Some s.input.[s.pos] else None

let advance s = s.pos <- s.pos + 1

let skip_ws s =
  let rec loop () =
    match peek s with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance s;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let expect s c =
  match peek s with
  | Some got when got = c -> advance s
  | Some got -> error s.pos "expected %C, found %C" c got
  | None -> error s.pos "expected %C, found end of input" c

let literal s word value =
  let len = String.length word in
  if
    s.pos + len <= String.length s.input
    && String.sub s.input s.pos len = word
  then begin
    s.pos <- s.pos + len;
    value
  end
  else error s.pos "invalid literal"

let utf8_add buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 s =
  let digit () =
    match peek s with
    | Some c ->
        advance s;
        (match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> error (s.pos - 1) "invalid \\u escape")
    | None -> error s.pos "truncated \\u escape"
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string s =
  expect s '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek s with
    | None -> error s.pos "unterminated string"
    | Some '"' -> advance s
    | Some '\\' ->
        advance s;
        (match peek s with
        | Some '"' -> advance s; Buffer.add_char buf '"'; loop ()
        | Some '\\' -> advance s; Buffer.add_char buf '\\'; loop ()
        | Some '/' -> advance s; Buffer.add_char buf '/'; loop ()
        | Some 'b' -> advance s; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance s; Buffer.add_char buf '\012'; loop ()
        | Some 'n' -> advance s; Buffer.add_char buf '\n'; loop ()
        | Some 'r' -> advance s; Buffer.add_char buf '\r'; loop ()
        | Some 't' -> advance s; Buffer.add_char buf '\t'; loop ()
        | Some 'u' ->
            advance s;
            let code = hex4 s in
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* High surrogate: require the matching low half. *)
              expect s '\\';
              expect s 'u';
              let low = hex4 s in
              if low < 0xDC00 || low > 0xDFFF then
                error s.pos "unpaired surrogate"
              else
                let scalar =
                  0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00))
                in
                (* Four-byte UTF-8. *)
                Buffer.add_char buf (Char.chr (0xF0 lor (scalar lsr 18)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((scalar lsr 12) land 0x3F)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((scalar lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (scalar land 0x3F)))
            end
            else if code >= 0xDC00 && code <= 0xDFFF then
              error s.pos "unpaired surrogate"
            else utf8_add buf code;
            loop ()
        | Some c -> error s.pos "invalid escape \\%C" c
        | None -> error s.pos "truncated escape")
    | Some c when Char.code c < 0x20 ->
        error s.pos "unescaped control character"
    | Some c ->
        advance s;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number s =
  let start = s.pos in
  let is_float = ref false in
  (match peek s with Some '-' -> advance s | _ -> ());
  let digits () =
    let seen = ref false in
    let rec loop () =
      match peek s with
      | Some '0' .. '9' ->
          seen := true;
          advance s;
          loop ()
      | _ -> ()
    in
    loop ();
    if not !seen then error s.pos "expected digit"
  in
  digits ();
  (match peek s with
  | Some '.' ->
      is_float := true;
      advance s;
      digits ()
  | _ -> ());
  (match peek s with
  | Some ('e' | 'E') ->
      is_float := true;
      advance s;
      (match peek s with Some ('+' | '-') -> advance s | _ -> ());
      digits ()
  | _ -> ());
  let lexeme = String.sub s.input start (s.pos - start) in
  if !is_float then Float (float_of_string lexeme)
  else
    match int_of_string_opt lexeme with
    | Some n -> Int n
    | None -> Float (float_of_string lexeme)

let rec parse_value s =
  skip_ws s;
  match peek s with
  | None -> error s.pos "unexpected end of input"
  | Some '{' ->
      advance s;
      skip_ws s;
      if peek s = Some '}' then begin
        advance s;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws s;
          let name = parse_string s in
          skip_ws s;
          expect s ':';
          let value = parse_value s in
          let acc = (name, value) :: acc in
          skip_ws s;
          match peek s with
          | Some ',' ->
              advance s;
              fields acc
          | Some '}' ->
              advance s;
              List.rev acc
          | Some c -> error s.pos "expected ',' or '}', found %C" c
          | None -> error s.pos "unterminated object"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance s;
      skip_ws s;
      if peek s = Some ']' then begin
        advance s;
        List []
      end
      else begin
        let rec elements acc =
          let value = parse_value s in
          let acc = value :: acc in
          skip_ws s;
          match peek s with
          | Some ',' ->
              advance s;
              elements acc
          | Some ']' ->
              advance s;
              List.rev acc
          | Some c -> error s.pos "expected ',' or ']', found %C" c
          | None -> error s.pos "unterminated array"
        in
        List (elements [])
      end
  | Some '"' -> Str (parse_string s)
  | Some 't' -> literal s "true" (Bool true)
  | Some 'f' -> literal s "false" (Bool false)
  | Some 'n' -> literal s "null" Null
  | Some ('-' | '0' .. '9') -> parse_number s
  | Some c -> error s.pos "unexpected character %C" c

let parse input =
  let s = { input; pos = 0 } in
  match parse_value s with
  | value ->
      skip_ws s;
      if s.pos <> String.length input then
        Result.Error
          (Printf.sprintf "offset %d: trailing characters after value" s.pos)
      else Ok value
  | exception Error (pos, msg) ->
      Result.Error (Printf.sprintf "offset %d: %s" pos msg)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

(* -- writing: the one string escaper and float format of every export ---- *)

let buf_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* %.12g: twelve significant digits, integral values without a trailing
   ".0", so an export is a pure function of the values it prints. *)
let float_str = Printf.sprintf "%.12g"

let buf_float buf f = Buffer.add_string buf (float_str f)

let buf_string_list buf items =
  Buffer.add_char buf '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      buf_string buf s)
    items;
  Buffer.add_char buf ']'
