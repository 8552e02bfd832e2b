(** A labelled sequence of (x, y) points — one curve of a figure. *)

type t = { label : string; points : (float * float) list }

val make : label:string -> (float * float) list -> t

val of_ints : label:string -> (int * int) list -> t

val length : t -> int

val y_max : t -> float
(** 0 for an empty series. *)

val y_at : t -> float -> float option
(** Exact-x lookup. *)

val map_y : t -> f:(float -> float) -> t

val pp_table : Format.formatter -> t list -> unit
(** Renders several series sharing their x values as an aligned text table,
    one row per x (union of all x values), one column per series. *)

val ascii_plot :
  ?width:int -> ?height:int -> Format.formatter -> t list -> unit
(** Rough terminal plot of the curves, for eyeballing figure shapes. *)
