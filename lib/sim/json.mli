(** Minimal strict JSON reader.

    The matching reader for the repo's hand-serialized, byte-deterministic
    JSON exports (the trace JSONL of [docs/TRACE.md] in particular).  Object
    fields keep their source order, so a consumer can enforce the documented
    fixed field layout; numbers parse to [Int] when the lexeme is integral
    and representable, [Float] otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in source order *)

val parse : string -> (t, string) result
(** Parse one complete JSON value.  Anything but trailing whitespace after
    the value — or any syntax error — yields [Error] with a byte offset and
    a one-line diagnosis. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing fields and non-objects. *)

val buf_string : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal, escaped exactly like the repo's
    exporters (quote, backslash, newline and tab get named escapes; other
    control bytes render as [\u00XX]). *)

val buf_string_list : Buffer.t -> string list -> unit
(** Append a JSON array of string literals, each escaped as by
    {!buf_string}. *)
