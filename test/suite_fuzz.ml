(* Decoder fuzzing: arbitrary byte strings must never raise — hostile input
   yields [Error] and nothing else.  This is the property that lets a
   protocol entity sit directly on an untrusted datagram socket. *)

let payload = Net.Bytebuf.string_codec

let random_bytes =
  QCheck.Gen.(map Bytes.of_string (string_size (int_bound 200)))

let arbitrary_bytes =
  QCheck.make
    ~print:(fun b -> Printf.sprintf "%d bytes" (Bytes.length b))
    random_bytes

let never_raises name decode =
  QCheck.Test.make ~name ~count:500 arbitrary_bytes (fun raw ->
      match decode raw with Ok _ | Error _ -> true)

let urcgc_fuzz =
  never_raises "urcgc decoder never raises on garbage" (fun raw ->
      Urcgc.Wire_codec.decode_body payload ~n:7 raw)

let cbcast_fuzz =
  never_raises "cbcast decoder never raises on garbage" (fun raw ->
      Cbcast.Cb_codec.decode_body payload ~n:7 raw)

(* Mutation fuzzing: take a VALID encoding and flip one byte anywhere; the
   decoder must still never raise (it may accept a different valid value). *)
let mutation_gen =
  QCheck.Gen.(
    let body =
      Urcgc.Wire_codec.encode_body payload
        (Urcgc.Wire.Request
           {
             sender = Net.Node_id.of_int 2;
             subrun = 5;
             last_processed = Array.init 7 (fun i -> i);
             waiting = Array.make 7 None;
             prev_decision = Urcgc.Decision.initial ~n:7;
           })
    in
    map2
      (fun pos value ->
        let raw = Bytes.copy body in
        Bytes.set_uint8 raw (pos mod Bytes.length raw) value;
        raw)
      small_nat (int_bound 255))

let mutation_fuzz =
  QCheck.Test.make ~name:"urcgc decoder survives single-byte mutations"
    ~count:500
    (QCheck.make
       ~print:(fun b -> Printf.sprintf "%d bytes" (Bytes.length b))
       mutation_gen)
    (fun raw ->
      match Urcgc.Wire_codec.decode_body payload ~n:7 raw with
      | Ok _ | Error _ -> true)

let cb_mutation_gen =
  QCheck.Gen.(
    let body =
      Cbcast.Cb_codec.encode_body payload
        (Cbcast.Cb_wire.Flush_unstable
           {
             view_id = 3;
             sender = Net.Node_id.of_int 1;
             msgs =
               [
                 {
                   Cbcast.Cb_wire.sender = Net.Node_id.of_int 1;
                   view_id = 3;
                   vt = Cbcast.Vclock.of_array [| 1; 2; 3; 4; 5; 6; 7 |];
                   payload = "zzz";
                   payload_size = 3;
                 };
               ];
           })
    in
    map2
      (fun pos value ->
        let raw = Bytes.copy body in
        Bytes.set_uint8 raw (pos mod Bytes.length raw) value;
        raw)
      small_nat (int_bound 255))

let cb_mutation_fuzz =
  QCheck.Test.make ~name:"cbcast decoder survives single-byte mutations"
    ~count:500
    (QCheck.make
       ~print:(fun b -> Printf.sprintf "%d bytes" (Bytes.length b))
       cb_mutation_gen)
    (fun raw ->
      match Cbcast.Cb_codec.decode_body payload ~n:7 raw with
      | Ok _ | Error _ -> true)

(* Exhaustive single-byte mutation: every byte of one frame of every PDU
   kind (the sample bodies of the codec suites), set to each of its 256
   values.  Decoding must return, never raise: with the raising read
   cursor, an exception escaping the decode boundary is the failure mode
   to guard. *)
let sweep name frames decode =
  Alcotest.test_case
    (Printf.sprintf "%s decoder survives every single-byte mutation" name)
    `Quick (fun () ->
      List.iter
        (fun frame ->
          for pos = 0 to Bytes.length frame - 1 do
            for value = 0 to 255 do
              let raw = Bytes.copy frame in
              Bytes.set_uint8 raw pos value;
              match decode raw with
              | Ok _ | Error _ -> ()
              | exception e ->
                  Alcotest.failf "%d-byte frame, byte %d := %d: %s"
                    (Bytes.length frame) pos value (Printexc.to_string e)
            done
          done)
        frames)

let sweeps =
  [
    sweep "urcgc"
      (List.map (Urcgc.Wire_codec.encode_body payload) (Suite_codec.bodies 7))
      (Urcgc.Wire_codec.decode_body payload ~n:7);
    sweep "cbcast"
      (List.map (Cbcast.Cb_codec.encode_body payload) Suite_cb_codec.bodies)
      (Cbcast.Cb_codec.decode_body payload ~n:5);
    sweep "urgc"
      (List.map (Urgc.Tw_codec.encode_body payload) (Suite_tw_codec.bodies 7))
      (Urgc.Tw_codec.decode_body payload ~n:7);
    sweep "psync"
      (List.map (Psync.Ps_codec.encode_body payload) Suite_ps_codec.bodies)
      (Psync.Ps_codec.decode_body payload);
  ]

let suite =
  [
    ( "fuzz.decoders",
      List.map QCheck_alcotest.to_alcotest
        [ urcgc_fuzz; cbcast_fuzz; mutation_fuzz; cb_mutation_fuzz ] );
    ("fuzz.sweep", sweeps);
  ]
