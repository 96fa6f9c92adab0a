(** Lowering quantized weight rows onto the GNOR-plane crossbar.

    The quantized classifier's decision function over 1-bit features is
    a finite boolean function: [label_bits] outputs of [n_features]
    inputs, the bit [b] output being "bit [b] of argmax(Wx + b)". The
    lowering enumerates it, espresso-minimizes the cover, and programs
    it as a two-plane GNOR PLA — the same silicon as every other
    workload, so the fault machinery (defect maps, ATPG, spare-row
    repair) applies unchanged.

    On clean devices the mapped array is bit-identical to
    {!Model.predict}; the [classify/mapped-vs-reference] property and
    the test battery pin that. *)

type t = {
  model : Model.t;
  cover : Logic.Cover.t;  (** minimized label-bit cover *)
  pla : Cnfet.Pla.t;  (** the programmed GNOR planes *)
  area : int;  (** folded CNFET PLA area, L² *)
}

val lower : ?minimize:bool -> Model.t -> t
(** Enumerate all [2^n_features] minterms (guarded at ≤ 16 features),
    build the label-bit cover, minimize ([minimize] defaults true;
    false keeps the raw minterm cover — only tests use that), program
    the PLA, and measure the folded area. *)

val decode : bool array -> int
(** LSB-first bits to an integer — total on any width. *)

val classify : t -> bool array -> int
(** Mapped-crossbar inference on clean devices:
    [decode (Pla.eval pla x)]. *)

val identity_physical : t -> spare_rows:int -> Cnfet.Pla.t
(** The array as first programmed: products on rows 0..products-1 via
    the identity assignment, [spare_rows] spare rows fully dropped —
    the geometry defect maps for the repair flow must match. *)

val eval_defective :
  and_defects:Fault.Defect.map -> or_defects:Fault.Defect.map -> Cnfet.Pla.t ->
  bool array -> bool array
(** Outputs of a (physical) PLA evaluated through per-plane defect maps,
    output-phase inversion applied: {!Fault.Defect.eval_pla}. Map
    geometry must match the planes. Total for in-range inputs: defects
    degrade data, never raise. *)

val classify_defective :
  and_defects:Fault.Defect.map -> or_defects:Fault.Defect.map -> Cnfet.Pla.t ->
  bool array -> int
(** [decode] of {!eval_defective} — the label the broken array actually
    reads out. May name no class; that is a wrong answer, not an
    error. The per-vector reference for {!labels_defective}. *)

val labels_defective :
  and_defects:Fault.Defect.map -> or_defects:Fault.Defect.map -> Cnfet.Pla.t -> int array
(** Every label the broken array reads out, indexed by the feature
    vector's minterm ({!Fault.Table.minterm}): one bit-sliced
    {!Fault.Table.eval} of the whole input space, so classifying a
    population through one array is a lookup per sample. Entry [m]
    equals {!classify_defective} on minterm [m]. *)
