(** Byte-level writer/reader used by the wire codecs.

    Big-endian fixed-width integers.  A frame is read through
    {!Reader.decode}, which returns [Error] on truncated or malformed
    input and never raises, so decoding a hostile packet can never take a
    protocol entity down.  Inside it the reads return plain values and a
    malformed field aborts the whole decode, so a field read allocates
    nothing. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u24 : t -> int -> unit
  val u32 : t -> int -> unit
  (** Each raises [Invalid_argument] when the value does not fit. *)

  val bytes : t -> bytes -> unit
  val bitmap : t -> bool array -> unit
  (** Packs 8 flags per byte, LSB first, padded to a whole byte. *)

  val contents : t -> bytes

  val clear : t -> unit
  (** Empty the writer, keeping its grown internal storage: codec-heavy
      loops can encode one frame per iteration into a single writer
      without re-allocating the buffer each time.  A clear-then-encode
      produces exactly the bytes a fresh writer would. *)

  val reset : t -> unit
  (** Like {!clear}, but also returns the internal storage to the
      writer's creation capacity — use when an unusually large frame has
      ballooned a long-lived writer. *)
end

module Reader : sig
  type t
  (** A cursor over one frame. *)

  val decode : bytes -> (t -> 'a) -> ('a, string) result
  (** [decode raw read] runs [read] over a cursor at the start of [raw]
      and returns its value once the whole frame is consumed.  A read past
      the end, trailing bytes, or a {!fail} inside [read] give [Error] with
      the reason.  The reads below may only be used inside [read]. *)

  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u24 : t -> int
  val u32 : t -> int
  val bytes : t -> int -> bytes

  val bitmap : t -> int -> bool array
  (** [bitmap r n] reads [ceil (n/8)] bytes and returns [n] flags. *)

  val array : t -> int -> (t -> 'a) -> 'a array
  (** [array r n read] reads [n] values with [read], in order; [read]
      must consume at least one byte.  A count larger than the bytes left
      fails as the read of the element that runs out would, without
      allocating for the count. *)

  val fail : string -> 'a
  (** Rejects the frame being decoded with the given reason. *)

  val of_result : ('a, string) result -> 'a
  (** The value of [Ok], or {!fail} with the reason of [Error]: a nested
      decoder such as a payload {!codec}. *)
end

type 'a codec = {
  encode : 'a -> bytes;
  decode : bytes -> ('a, string) result;
}
(** Payload codec threaded through the protocol wire codecs. *)

val string_codec : string codec
