module Writer = struct
  type t = Buffer.t

  let create ?(capacity = 256) () = Buffer.create capacity

  let length = Buffer.length

  let check value bits =
    if value < 0 || (bits < 63 && value lsr bits <> 0) then
      invalid_arg (Printf.sprintf "Bytebuf.Writer: %d does not fit u%d" value bits)

  let u8 t v =
    check v 8;
    Buffer.add_uint8 t v

  let u16 t v =
    check v 16;
    Buffer.add_uint16_be t v

  let u24 t v =
    check v 24;
    Buffer.add_uint8 t (v lsr 16);
    Buffer.add_uint16_be t (v land 0xFFFF)

  (* Two 16-bit halves: no [int32] is boxed. *)
  let u32 t v =
    check v 32;
    Buffer.add_uint16_be t (v lsr 16);
    Buffer.add_uint16_be t (v land 0xFFFF)

  let bytes t b = Buffer.add_bytes t b

  let bitmap t flags =
    let n = Array.length flags in
    let byte_count = (n + 7) / 8 in
    for byte = 0 to byte_count - 1 do
      let value = ref 0 in
      for bit = 0 to 7 do
        let i = (byte * 8) + bit in
        if i < n && flags.(i) then value := !value lor (1 lsl bit)
      done;
      Buffer.add_uint8 t !value
    done

  let contents t = Buffer.to_bytes t

  let clear = Buffer.clear

  let reset = Buffer.reset
end

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  (* Private to this module: every read below raises it, and [decode], the
     only entry point, catches it. *)
  exception Malformed of string

  let fail reason = raise_notrace (Malformed reason)

  let of_result = function Ok v -> v | Error reason -> fail reason

  let remaining t = Bytes.length t.data - t.pos

  (* Position of the next [n] bytes, which the cursor then moves past. *)
  let take t n =
    let pos = t.pos in
    if Bytes.length t.data - pos < n then
      fail (Printf.sprintf "truncated: need %d bytes" n);
    t.pos <- pos + n;
    pos

  let u8 t = Bytes.get_uint8 t.data (take t 1)

  let u16 t = Bytes.get_uint16_be t.data (take t 2)

  let u24 t =
    let hi = u8 t in
    let lo = u16 t in
    (hi lsl 16) lor lo

  (* Two 16-bit halves: no [int32] is boxed. *)
  let u32 t =
    let pos = take t 4 in
    (Bytes.get_uint16_be t.data pos lsl 16)
    lor Bytes.get_uint16_be t.data (pos + 2)

  let bytes t n =
    if n < 0 then fail "negative length";
    Bytes.sub t.data (take t n) n

  let bitmap t n =
    if n < 0 then fail "negative bitmap size";
    let pos = take t ((n + 7) / 8) in
    let flags = Array.make n false in
    for i = 0 to n - 1 do
      if Bytes.get_uint8 t.data (pos + (i / 8)) land (1 lsl (i mod 8)) <> 0
      then flags.(i) <- true
    done;
    flags

  let array t n read =
    if n < 0 then fail "negative length";
    if n = 0 then [||]
    else if n > remaining t then begin
      (* Every element takes at least one byte, so a count this large is
         truncated: read up to the failing element instead of allocating
         [n] slots for a hostile count. *)
      let rec exhaust () =
        ignore (read t);
        exhaust ()
      in
      exhaust ()
    end
    else begin
      let first = read t in
      let values = Array.make n first in
      for i = 1 to n - 1 do
        values.(i) <- read t
      done;
      values
    end

  let decode raw read =
    let t = { data = raw; pos = 0 } in
    match
      let value = read t in
      if remaining t <> 0 then
        fail (Printf.sprintf "%d trailing bytes" (remaining t));
      value
    with
    | value -> Ok value
    | exception Malformed reason -> Error reason
end

type 'a codec = {
  encode : 'a -> bytes;
  decode : bytes -> ('a, string) result;
}

let string_codec =
  { encode = Bytes.of_string; decode = (fun b -> Ok (Bytes.to_string b)) }
