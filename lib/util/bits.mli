(** Bit operations on native ints used as 63-lane words. *)

val popcount : int -> int
(** Set bits of a native int (all 63, the sign bit included). *)
