(** Generators, shrinkers and printers for the repo's core values.

    Every generator works on a {e spec}: a plain immutable description
    (literal codes, mode matrices, defect lists) that shrinks structurally
    and converts to the real value on demand. Specs keep shrinking honest —
    a shrunk spec is always well formed by construction — and make
    counterexamples printable without depending on the value's own
    invariants. *)

(** {1 Cubes} *)

type cube_spec = { lits : int array  (** raw 2-bit codes: 1 = Zero, 2 = One, 3 = Dc *); outs : int  (** output bitmask *) }

val boundary_widths : int list
(** Input arities straddling the 31-literal packed-word boundary (1–8, 29–35,
    61–65): one-word, exactly-full-word and multi-word cubes. *)

val small_widths : int list
(** 1–6 inputs, for properties with exhaustive truth-table oracles. *)

val cube_of_spec : n_in:int -> n_out:int -> cube_spec -> Logic.Cube.t

val cube_spec : ?dc_weight:int -> ?allow_empty_outs:bool -> n_in:int -> n_out:int -> unit -> cube_spec Gen.t

val shrink_cube_spec : ?allow_empty_outs:bool -> cube_spec Shrink.t
(** Literals toward [Dc], then selected outputs dropped one at a time. *)

(** A differential case for the packed-vs-naive kernel: two same-arity
    cubes plus a minterm. *)
type cube_case = {
  cc_n_in : int;
  cc_n_out : int;
  cc_a : cube_spec;
  cc_b : cube_spec;  (** biased toward sharing literals with [cc_a] *)
  cc_minterm : bool array;
}

val cube_case_to_cubes : cube_case -> Logic.Cube.t * Logic.Cube.t

val cube_case : ?widths:int list -> unit -> cube_case Gen.t

val arb_cube_case : ?widths:int list -> unit -> cube_case Arb.t

(** {1 Covers} *)

type cover_spec = { cv_n_in : int; cv_n_out : int; cv_cubes : cube_spec list }

val cover_of_spec : cover_spec -> Logic.Cover.t

val cover_spec :
  ?widths:int list -> ?max_out:int -> ?min_cubes:int -> ?max_cubes:int -> ?dc_weight:int -> unit -> cover_spec Gen.t

val shrink_cover_spec : ?min_cubes:int -> cover_spec Shrink.t

val print_cover_spec : cover_spec -> string

val arb_cover_spec :
  ?widths:int list -> ?max_out:int -> ?min_cubes:int -> ?max_cubes:int -> ?dc_weight:int -> unit -> cover_spec Arb.t

(** On-set plus don't-care set of one arity (espresso's input shape). *)
type cover_dc_spec = { fd_f : cover_spec; fd_dc : cover_spec }

val arb_cover_dc_spec : ?widths:int list -> ?max_out:int -> ?max_cubes:int -> unit -> cover_dc_spec Arb.t

(** {1 GNOR planes} *)

type plane_spec = { pl_modes : Cnfet.Gnor.input_mode array array }

val plane_rows : plane_spec -> int

val plane_cols : plane_spec -> int

val plane_of_spec : plane_spec -> Cnfet.Plane.t

val arb_plane_spec : ?max_rows:int -> ?max_cols:int -> unit -> plane_spec Arb.t

(** {1 NOR networks} *)

val arb_network : ?max_pi:int -> ?max_nodes:int -> unit -> Cnfet.Cascade.network Arb.t
(** Topologically ordered random NOR DAGs with per-fanin inversion flags;
    shrinking trims fanin lists (node count and references stay fixed). *)

(** {1 Defects and repair} *)

type defect_spec = { df_rows : int; df_cols : int; df_defects : (int * int * Fault.Defect.kind) list }

val defect_map_of_spec : defect_spec -> Fault.Defect.map

val defect_spec : rows:int -> cols:int -> rate:float -> defect_spec Gen.t

(** A repair scenario: function, spare rows, and per-plane defect maps
    sized for the PLA the function maps onto. *)
type repair_case = {
  rp_cover : cover_spec;
  rp_spares : int;
  rp_and : defect_spec;
  rp_or : defect_spec;
}

val arb_repair_case : ?rate:float -> unit -> repair_case Arb.t

(** A physical array for the bit-sliced evaluator: a function with random
    output phases placed on its products plus spare rows, and defect maps
    of that geometry (stuck-closed rows included). Input widths 0 and 1
    hit the padded AND column, 7 a multi-word minterm space. *)
type table_case = {
  tc_cover : cover_spec;
  tc_inverted : bool array;  (** per output: cover holds the negative phase *)
  tc_spares : int;
  tc_and : defect_spec;
  tc_or : defect_spec;
}

val table_case_physical : table_case -> Cnfet.Pla.t
(** The identity placement of the case's PLA on [products + spares] rows. *)

val arb_table_case : unit -> table_case Arb.t

(** {1 Crossbars} *)

type crossbar_spec = {
  xb_rows : int;
  xb_cols : int;
  xb_conns : (int * int) list;
  xb_driven : (int * bool) list;  (** distinct rows with drive values *)
}

val crossbar_of_spec : crossbar_spec -> Cnfet.Crossbar.t

val arb_crossbar_spec : ?max_rows:int -> ?max_cols:int -> unit -> crossbar_spec Arb.t

(** {1 FPGA designs} *)

type design_case = { dg_seed : int; dg_n_pi : int; dg_n_blocks : int }

val design_of_case : design_case -> Fpga.Design.t

val arb_design_case : unit -> design_case Arb.t

(** {1 Classifier models} *)

type classify_case = {
  cl_n_features : int;  (** 3–5, so every minterm can be swept *)
  cl_n_classes : int;
  cl_weights : int array array;
  cl_bias : int array;
  cl_seed : int;  (** fault-engine seed for the degraded-device side *)
  cl_rate : float;  (** crosspoint fault rate (0 / 0.02 / 0.1) *)
}

val model_of_case : classify_case -> Classify.Model.t

val classify_case : ?min_classes:int -> unit -> classify_case Gen.t
(** [min_classes] defaults to 2; the planted mis-mapping tests pass 3 so
    the label encoding is at least two bits wide. *)

val shrink_classify_case : classify_case Shrink.t

val print_classify_case : classify_case -> string

val arb_classify_case : ?min_classes:int -> unit -> classify_case Arb.t

(** {1 Helpers} *)

val all_minterms : int -> bool array list
(** Every assignment of [n] inputs, ascending; intended for [n ≤ 8]. *)
