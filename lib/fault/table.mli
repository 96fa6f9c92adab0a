(** Bit-sliced exhaustive evaluation of a PLA through defect maps.

    Every consumer of the fault model asks the same question — what does
    the programmed array compute, through its defects, on {e every} input
    vector? — and the input spaces are small (ATPG enumerates at most
    2{^14} minterms, the classifier 2{^8}). So instead of one allocating
    evaluation per vector, a table holds each signal as a bit slice over
    the whole space: minterm [m] is bit [m mod 63] of word [m / 63], 63
    minterms per native int.

    Input column [i] is a fixed word pattern (bit [i] of each minterm
    index); AND-plane columns past the PLA's inputs are padding and read
    0, exactly as in {!Cnfet.Pla.eval}. A GNOR row is
    [lnot (OR of its Pass columns and complemented Invert columns)],
    masked to the valid minterms. Through a defect map a [Stuck_open]
    crosspoint acts as [Drop] and a row holding a [Stuck_closed]
    crosspoint is constant 0 — the semantics of
    {!Defect.eval_with_defects}, which together with {!Defect.eval_pla}
    stays as the per-vector reference this kernel is checked against. *)

(** {1 Minterm spaces} *)

type space
(** The [2^n] minterms of an [n]-input space. *)

val max_inputs : int
(** Largest supported input count (20). *)

val space : int -> space
(** Raises [Invalid_argument] outside [0 .. max_inputs]. *)

val words : space -> int
(** Native ints per slice: [ceil (2^n / 63)]. *)

val column : space -> int -> int array
(** The slice of input column [i]: bit set iff bit [i] of the minterm
    index is. Columns [i >= n] are AND-plane padding, all zero. *)

val gnor : space -> int array array -> Cnfet.Gnor.input_mode array -> int array
(** The slice of one GNOR row whose column [c] carries [columns.(c)]. *)

val plane : space -> ?defects:Defect.map -> Cnfet.Plane.t -> int array array -> int array array
(** Every row of a plane over the given column slices, evaluated
    through [defects] (default: none). Raises [Invalid_argument] when
    the defect map's shape differs from the plane's. *)

val mem : int array -> int -> bool
(** [mem slice m]: is minterm [m] set in [slice]? *)

(** {1 Output tables} *)

type t
(** Every output of a PLA over its whole input space. *)

val eval : ?and_defects:Defect.map -> ?or_defects:Defect.map -> Cnfet.Pla.t -> t
(** The PLA's outputs, output-phase inversion applied, evaluated through
    the per-plane defect maps (default: defect-free). Agrees with
    {!Defect.eval_pla} on every minterm. Raises [Invalid_argument] above
    {!max_inputs} inputs or on a map/plane shape mismatch. *)

val minterms : t -> int
(** [2^inputs]. *)

val outputs : t -> int -> bool array
(** The output vector at one minterm. *)

val differs_at : t -> t -> int -> bool
(** Do two tables of the same shape disagree on any output at minterm [m]? *)

val equal : t -> t -> bool
(** Same shape and the same value of every output on every minterm. *)

val minterm : bool array -> int
(** Index of an input vector: input [i] is bit [i]. *)
