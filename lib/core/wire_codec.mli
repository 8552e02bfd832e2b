(** Binary codec for the urcgc PDUs.

    The encoded length of every body is exactly {!Wire.body_size} — the
    byte accounting behind the paper's Table 1 measurements is checked
    against these codecs by property tests.  Decoding never raises: hostile
    or truncated input yields [Error].

    The group cardinality [n] is part of the channel contract (both sides
    know the group), so vectors are encoded without per-message length
    prefixes, as the size formulas assume. *)

type 'a payload = 'a Net.Bytebuf.codec = {
  encode : 'a -> bytes;
  decode : bytes -> ('a, string) result;
}

val string_payload : string payload
(** Identity codec for string payloads. *)

val encode_body : 'a payload -> 'a Wire.body -> bytes
(** Raises [Invalid_argument] if a data message's declared [payload_size]
    differs from the payload's actual encoded length (the size accounting
    would silently lie otherwise), or if a field exceeds its wire width. *)

val encode_body_into :
  Net.Bytebuf.Writer.t -> 'a payload -> 'a Wire.body -> bytes
(** [encode_body] writing into a caller-pooled writer (cleared first):
    encode-heavy loops reuse one grown buffer instead of allocating a
    fresh writer per PDU.  Produces exactly the bytes {!encode_body}
    would. *)

val decode_body : 'a payload -> n:int -> bytes -> ('a Wire.body, string) result

val encode_decision : Decision.t -> bytes
val decode_decision : n:int -> bytes -> (Decision.t, string) result
