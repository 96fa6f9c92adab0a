(** The reference quantized linear classifier.

    A model is [n_classes] rows of signed [weight_bits]-wide integer
    weights over 1-bit features plus a bias per class; inference is an
    integer multiply-accumulate (with 1-bit inputs, an AND and a
    conditional add — the crossbar-friendly form) followed by argmax.
    This integer evaluator is the {e oracle}: the crossbar mapping
    ({!Map}) must be bit-identical to it on clean devices, and the
    non-ideal device path ({!predict_dev}) must collapse to it when no
    fault engine is armed. *)

type t = {
  n_features : int;
  n_classes : int;
  weight_bits : int;  (** signed width every weight and bias fits in *)
  weights : int array array;  (** [n_classes × n_features], row per class *)
  bias : int array;  (** [n_classes] *)
}

val make :
  n_features:int -> n_classes:int -> weight_bits:int -> weights:int array array ->
  bias:int array -> t
(** Validates shape and range: [n_features ≥ 1], [n_classes ≥ 2],
    [weight_bits ≥ 2], every weight and bias in the signed [weight_bits]
    window. Raises [Invalid_argument] otherwise. Arrays are copied. *)

val scores : t -> bool array -> int array
(** Per-class integer scores [Σ w·x + b]. *)

val predict : t -> bool array -> int
(** Argmax of {!scores}; ties break to the lowest class index. *)

val label_bits : t -> int
(** Output bits of the binary label encoding: [⌈log₂ n_classes⌉]. *)

val encode_label : t -> int -> bool array
(** LSB-first binary encoding of a label, [label_bits] wide. *)

val decode_label : t -> bool array -> int
(** Total inverse of {!encode_label} on any [label_bits]-wide vector.
    Under faults the decoded value may name no class
    ([≥ n_classes] when [n_classes] is not a power of two) — that is
    data (a wrong label), never an exception. *)

val predict_dev : ?engine:Fault.Inject.t -> t -> sample:int -> bool array -> int
(** Inference through the device non-ideality model: each weight and
    bias cell is scaled by its lifetime D2D factor
    ({!Fault.Inject.weight_factor}, keyed by the cell's index), each
    class read at [sample] is offset by ±LSB read noise (keyed by
    [sample × n_classes + class]) and clamped by the ADC window.

    With [engine] the draws come from that explicit engine's [_of]
    helpers; without it they come from the process-global engine — and
    when that is disarmed the call is one atomic load plus {!predict},
    bit-identical to the reference.

    This per-sample form redraws every cell factor and read offset on
    each call. It is the {e oracle} for the hoisted form below, which
    the envelope runs; the [classify/hoisted-vs-predict-dev] property
    holds the two label for label. *)

(** {2 The hoisted analog path}

    The draws of {!predict_dev ~engine}, made once each: the cell
    factors depend only on the engine's seed and σ, the read offsets
    only on its seed and LSB. [predict_drawn m ~factors:(weight_factors
    e m) ~offsets:(read_offsets e m ~samples) ~clamp:(Fault.Inject.adc_clamp_of
    e) ~sample x] equals [predict_dev ~engine:e m ~sample x] for every
    [sample < samples]: the same MAC in the same float summation order,
    the same round, offset, clamp and argmax. *)

val weight_factors : Fault.Inject.t -> t -> float array array
(** [n_classes × (n_features + 1)] lifetime factors, entry [(c, f)] for
    the cell {!weight_cell_index}[ ~class_:c ~feature:f] (column
    [n_features] is the bias cell). *)

val read_offsets : Fault.Inject.t -> t -> samples:int -> int array
(** Read offsets of samples [0..samples-1], entry
    [sample × n_classes + class]. *)

val predict_drawn :
  t -> factors:float array array -> offsets:int array -> clamp:(int -> int) -> sample:int ->
  bool array -> int
(** Inference through pre-drawn factors and offsets, each class read
    passed through [clamp] (the ADC). *)

val weight_cell_index : t -> class_:int -> feature:int -> int
(** The {!Fault.Inject.site} coordinate of a weight cell:
    [class_ × (n_features + 1) + feature]; [feature = n_features]
    addresses the class's bias cell. *)
