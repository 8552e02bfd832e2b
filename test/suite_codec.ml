(* Tests for the binary wire codec: the encoded length of every PDU must be
   exactly Wire.body_size (Table 1's byte accounting is measured from these
   formulas), roundtrips must be lossless, and hostile input must be
   rejected with Error, never an exception. *)

let node n = Net.Node_id.of_int n
let mid o s = Causal.Mid.make ~origin:(node o) ~seq:s

let payload = Urcgc.Wire_codec.string_payload

let msg ?(deps = []) o s text =
  Causal.Causal_msg.make ~mid:(mid o s) ~deps ~payload_size:(String.length text)
    text

let sample_decision n =
  {
    Urcgc.Decision.subrun = 7;
    coordinator = node (n - 1);
    full_group = true;
    stable = Array.init n (fun i -> i * 3);
    max_processed = Array.init n (fun i -> (i * 5) + 1);
    most_updated = Array.init n (fun i -> node ((i + 1) mod n));
    min_waiting = Array.init n (fun i -> if i mod 2 = 0 then 0 else i);
    attempts = Array.init n (fun i -> i mod 3);
    alive = Array.init n (fun i -> i mod 4 <> 3);
    heard = Array.init n (fun i -> i mod 2 = 0);
    acc_stable = Array.init n (fun i -> if i = 0 then max_int else i);
    acc_min_waiting = Array.init n (fun i -> i);
  }

let sample_request n =
  {
    Urcgc.Wire.sender = node 2;
    subrun = 9;
    last_processed = Array.init n (fun i -> i * 2);
    waiting =
      Array.init n (fun i -> if i mod 3 = 0 then Some (mid i (i + 1)) else None);
    prev_decision = sample_decision n;
  }

let bodies n : string Urcgc.Wire.body list =
  [
    Urcgc.Wire.Data (msg 1 4 "hello world");
    Urcgc.Wire.Data (msg ~deps:[ mid 0 2; mid 2 9 ] 1 5 "");
    Urcgc.Wire.Request (sample_request n);
    Urcgc.Wire.Decision_pdu (sample_decision n);
    Urcgc.Wire.Recover_req
      { requester = node 0; origin = node 3; from_seq = 4; to_seq = 19 };
    Urcgc.Wire.Recover_reply
      {
        responder = node 1;
        messages = [ msg 3 1 "a"; msg ~deps:[ mid 3 1 ] 3 2 "bb" ];
      };
  ]

let bytes_t =
  Alcotest.testable
    (fun ppf b -> Format.fprintf ppf "%d bytes" (Bytes.length b))
    Bytes.equal

let roundtrip body =
  let raw = Urcgc.Wire_codec.encode_body payload body in
  match Urcgc.Wire_codec.decode_body payload ~n:5 raw with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok decoded ->
      let again = Urcgc.Wire_codec.encode_body payload decoded in
      Alcotest.(check bytes_t) "re-encoding is identical" raw again

let size_tests =
  [
    Alcotest.test_case "encoded length equals Wire.body_size for every PDU"
      `Quick (fun () ->
        List.iter
          (fun body ->
            let raw = Urcgc.Wire_codec.encode_body payload body in
            Alcotest.(check int)
              (Format.asprintf "%a" Urcgc.Wire.pp_body body)
              (Urcgc.Wire.body_size body) (Bytes.length raw))
          (bodies 5));
    Alcotest.test_case "decision codec matches Decision.encoded_size" `Quick
      (fun () ->
        List.iter
          (fun n ->
            let d = sample_decision n in
            Alcotest.(check int)
              (Printf.sprintf "n=%d" n)
              (Urcgc.Decision.encoded_size d)
              (Bytes.length (Urcgc.Wire_codec.encode_decision d)))
          [ 1; 5; 8; 15; 40 ]);
    Alcotest.test_case "payload_size lies are rejected at encode time" `Quick
      (fun () ->
        let lying =
          Causal.Causal_msg.make ~mid:(mid 0 1) ~deps:[] ~payload_size:99
            "short"
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Urcgc.Wire_codec.encode_body payload (Urcgc.Wire.Data lying));
             false
           with Invalid_argument _ -> true));
  ]

let roundtrip_tests =
  [
    Alcotest.test_case "every PDU kind roundtrips losslessly" `Quick (fun () ->
        List.iter roundtrip (bodies 5));
    Alcotest.test_case "decision fields survive the roundtrip" `Quick (fun () ->
        let d = sample_decision 7 in
        let raw = Urcgc.Wire_codec.encode_decision d in
        match Urcgc.Wire_codec.decode_decision ~n:7 raw with
        | Error e -> Alcotest.failf "decode: %s" e
        | Ok d' ->
            Alcotest.(check int) "subrun" d.Urcgc.Decision.subrun
              d'.Urcgc.Decision.subrun;
            Alcotest.(check bool) "full_group" d.Urcgc.Decision.full_group
              d'.Urcgc.Decision.full_group;
            Alcotest.(check (array int)) "stable" d.Urcgc.Decision.stable
              d'.Urcgc.Decision.stable;
            Alcotest.(check (array int)) "acc_stable (sentinel)"
              d.Urcgc.Decision.acc_stable d'.Urcgc.Decision.acc_stable;
            Alcotest.(check (array bool)) "alive" d.Urcgc.Decision.alive
              d'.Urcgc.Decision.alive;
            Alcotest.(check (array bool)) "heard" d.Urcgc.Decision.heard
              d'.Urcgc.Decision.heard);
    Alcotest.test_case
      "an n = 40 request round-trips in at most 1.5x its decoded words" `Quick
      (fun () ->
        let n = 40 in
        let body = Urcgc.Wire.Request (sample_request n) in
        let writer = Net.Bytebuf.Writer.create () in
        let roundtrip () =
          let raw = Urcgc.Wire_codec.encode_body_into writer payload body in
          match Urcgc.Wire_codec.decode_body payload ~n raw with
          | Ok decoded -> decoded
          | Error e -> Alcotest.fail e
        in
        (* The first round trip grows the pooled writer. *)
        let decoded = roundtrip () in
        let reps = 100 in
        let before = Alloc_words.count () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (roundtrip ()))
        done;
        let per_pdu = (Alloc_words.count () -. before) /. float_of_int reps in
        let value = float_of_int (Obj.reachable_words (Obj.repr decoded)) in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f words per round trip <= 1.5 x %.0f" per_pdu
             value)
          true
          (per_pdu <= 1.5 *. value));
  ]

let hostile_tests =
  [
    Alcotest.test_case "unknown tag is an error" `Quick (fun () ->
        match
          Urcgc.Wire_codec.decode_body payload ~n:5 (Bytes.make 4 '\xee')
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted garbage");
    Alcotest.test_case "truncated input is an error" `Quick (fun () ->
        let raw =
          Urcgc.Wire_codec.encode_body payload
            (Urcgc.Wire.Decision_pdu (sample_decision 5))
        in
        let truncated = Bytes.sub raw 0 (Bytes.length raw - 3) in
        match Urcgc.Wire_codec.decode_body payload ~n:5 truncated with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted truncated input");
    Alcotest.test_case "trailing bytes are an error" `Quick (fun () ->
        let raw =
          Urcgc.Wire_codec.encode_body payload (Urcgc.Wire.Data (msg 0 1 "x"))
        in
        let padded = Bytes.cat raw (Bytes.make 2 '\x00') in
        match Urcgc.Wire_codec.decode_body payload ~n:5 padded with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted trailing bytes");
    Alcotest.test_case "zero sequence number is rejected" `Quick (fun () ->
        (* Hand-craft a data PDU with seq = 0. *)
        let w = Net.Bytebuf.Writer.create () in
        Net.Bytebuf.Writer.u8 w 1;
        Net.Bytebuf.Writer.u24 w 0;
        Net.Bytebuf.Writer.u32 w 0;
        Net.Bytebuf.Writer.u16 w 0;
        Net.Bytebuf.Writer.u16 w 0;
        match
          Urcgc.Wire_codec.decode_body payload ~n:5
            (Net.Bytebuf.Writer.contents w)
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted seq 0");
    Alcotest.test_case "empty input is an error" `Quick (fun () ->
        match Urcgc.Wire_codec.decode_body payload ~n:5 Bytes.empty with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted empty input");
  ]

let bytebuf_tests =
  [
    Alcotest.test_case "integers roundtrip at width boundaries" `Quick
      (fun () ->
        let w = Net.Bytebuf.Writer.create () in
        Net.Bytebuf.Writer.u8 w 255;
        Net.Bytebuf.Writer.u16 w 65535;
        Net.Bytebuf.Writer.u24 w 0xFFFFFF;
        Net.Bytebuf.Writer.u32 w 0xFFFFFFFF;
        match
          Net.Bytebuf.Reader.decode (Net.Bytebuf.Writer.contents w) (fun r ->
              let u8 = Net.Bytebuf.Reader.u8 r in
              let u16 = Net.Bytebuf.Reader.u16 r in
              let u24 = Net.Bytebuf.Reader.u24 r in
              let u32 = Net.Bytebuf.Reader.u32 r in
              (u8, u16, u24, u32))
        with
        | Error e -> Alcotest.fail e
        | Ok (u8, u16, u24, u32) ->
            Alcotest.(check int) "u8" 255 u8;
            Alcotest.(check int) "u16" 65535 u16;
            Alcotest.(check int) "u24" 0xFFFFFF u24;
            Alcotest.(check int) "u32" 0xFFFFFFFF u32);
    Alcotest.test_case "writer rejects out-of-range" `Quick (fun () ->
        let w = Net.Bytebuf.Writer.create () in
        Alcotest.(check bool) "u8 256" true
          (try
             Net.Bytebuf.Writer.u8 w 256;
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "negative" true
          (try
             Net.Bytebuf.Writer.u16 w (-1);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "bitmap roundtrips odd sizes" `Quick (fun () ->
        List.iter
          (fun n ->
            let flags = Array.init n (fun i -> i mod 3 = 0) in
            let w = Net.Bytebuf.Writer.create () in
            Net.Bytebuf.Writer.bitmap w flags;
            Alcotest.(check int) "packed size" ((n + 7) / 8)
              (Net.Bytebuf.Writer.length w);
            match
              Net.Bytebuf.Reader.decode (Net.Bytebuf.Writer.contents w)
                (fun r -> Net.Bytebuf.Reader.bitmap r n)
            with
            | Ok flags' -> Alcotest.(check (array bool)) "flags" flags flags'
            | Error e -> Alcotest.fail e)
          [ 1; 7; 8; 9; 15; 40 ]);
    (let encode w i =
       (* A representative mixed-width frame, parameterized so successive
          encodes into a reused writer produce different bytes. *)
       Net.Bytebuf.Writer.u8 w (i land 0xFF);
       Net.Bytebuf.Writer.u16 w (i * 7);
       Net.Bytebuf.Writer.u24 w (i * 131);
       Net.Bytebuf.Writer.u32 w (i * 65537);
       Net.Bytebuf.Writer.bytes w (Bytes.make 5 (Char.chr (97 + (i mod 26))));
       Net.Bytebuf.Writer.bitmap w (Array.init 11 (fun b -> (b + i) mod 2 = 0));
       Net.Bytebuf.Writer.contents w
     in
     Alcotest.test_case "clear/reset-then-encode matches a fresh writer"
       `Quick (fun () ->
         let reused = Net.Bytebuf.Writer.create ~capacity:8 () in
         for i = 0 to 40 do
           (* Alternate both reuse flavours across iterations. *)
           if i mod 2 = 0 then Net.Bytebuf.Writer.clear reused
           else Net.Bytebuf.Writer.reset reused;
           let fresh = Net.Bytebuf.Writer.create () in
           let expected = encode fresh i in
           let got = encode reused i in
           Alcotest.(check bool)
             (Printf.sprintf "frame %d identical" i)
             true
             (Bytes.equal expected got)
         done));
    Alcotest.test_case "clear and reset empty the writer" `Quick (fun () ->
        let w = Net.Bytebuf.Writer.create () in
        Net.Bytebuf.Writer.u32 w 0xDEADBEEF;
        Alcotest.(check int) "filled" 4 (Net.Bytebuf.Writer.length w);
        Net.Bytebuf.Writer.clear w;
        Alcotest.(check int) "cleared" 0 (Net.Bytebuf.Writer.length w);
        Alcotest.(check int) "empty contents" 0
          (Bytes.length (Net.Bytebuf.Writer.contents w));
        Net.Bytebuf.Writer.u8 w 7;
        Net.Bytebuf.Writer.reset w;
        Alcotest.(check int) "reset" 0 (Net.Bytebuf.Writer.length w));
  ]

(* Property: arbitrary generated bodies have encoded length = body_size and
   roundtrip to identical bytes. *)
let codec_property =
  let gen =
    QCheck.Gen.(
      let n = 5 in
      let mid_gen =
        map2 (fun o s -> mid o (s + 1)) (int_bound (n - 1)) (int_bound 50)
      in
      let data_gen =
        map2
          (fun m text ->
            (* at most one dep per origin, none on the message's own origin
               at or past its seq: build from distinct other origins *)
            let deps =
              List.filteri
                (fun i _ -> i mod 2 = 0)
                (List.init (Net.Node_id.to_int (Causal.Mid.origin m)) (fun o ->
                     mid o 1))
            in
            Urcgc.Wire.Data
              (Causal.Causal_msg.make ~mid:m ~deps
                 ~payload_size:(String.length text) text))
          mid_gen (string_size (int_bound 32))
      in
      let recover_gen =
        map2
          (fun a b ->
            Urcgc.Wire.Recover_req
              {
                requester = node (a mod n);
                origin = node (b mod n);
                from_seq = a + 1;
                to_seq = a + b + 1;
              })
          small_nat small_nat
      in
      oneof [ data_gen; recover_gen ])
  in
  QCheck.Test.make ~name:"codec: length = body_size and lossless roundtrip"
    ~count:300
    (QCheck.make
       ~print:(fun body -> Format.asprintf "%a" Urcgc.Wire.pp_body body)
       gen)
    (fun body ->
      let raw = Urcgc.Wire_codec.encode_body payload body in
      Bytes.length raw = Urcgc.Wire.body_size body
      &&
      match Urcgc.Wire_codec.decode_body payload ~n:5 raw with
      | Ok decoded ->
          Bytes.equal raw (Urcgc.Wire_codec.encode_body payload decoded)
      | Error _ -> false)

let suite =
  [
    ("codec.sizes", size_tests);
    ("codec.roundtrip", roundtrip_tests @ [ QCheck_alcotest.to_alcotest codec_property ]);
    ("codec.hostile", hostile_tests);
    ("codec.bytebuf", bytebuf_tests);
  ]
