type t = {
  n_features : int;
  n_classes : int;
  weight_bits : int;
  weights : int array array;
  bias : int array;
}

let make ~n_features ~n_classes ~weight_bits ~weights ~bias =
  if n_features < 1 then invalid_arg "Classify.Model.make: n_features < 1";
  if n_classes < 2 then invalid_arg "Classify.Model.make: n_classes < 2";
  if weight_bits < 2 then invalid_arg "Classify.Model.make: weight_bits < 2";
  if Array.length weights <> n_classes then
    invalid_arg "Classify.Model.make: weights must have one row per class";
  if Array.length bias <> n_classes then
    invalid_arg "Classify.Model.make: bias must have one entry per class";
  let lo = -(1 lsl (weight_bits - 1)) and hi = (1 lsl (weight_bits - 1)) - 1 in
  let check_range what v =
    if v < lo || v > hi then
      invalid_arg
        (Printf.sprintf "Classify.Model.make: %s = %d outside signed %d-bit [%d, %d]" what v
           weight_bits lo hi)
  in
  Array.iteri
    (fun c row ->
      if Array.length row <> n_features then
        invalid_arg "Classify.Model.make: weight row width mismatch";
      Array.iteri (fun f w -> check_range (Printf.sprintf "weights.(%d).(%d)" c f) w) row)
    weights;
  Array.iteri (fun c b -> check_range (Printf.sprintf "bias.(%d)" c) b) bias;
  {
    n_features;
    n_classes;
    weight_bits;
    weights = Array.map Array.copy weights;
    bias = Array.copy bias;
  }

let check_input m x =
  if Array.length x <> m.n_features then
    invalid_arg
      (Printf.sprintf "Classify.Model: input width %d, expected %d features" (Array.length x)
         m.n_features)

let scores m x =
  check_input m x;
  Array.init m.n_classes (fun c ->
      let row = m.weights.(c) in
      let acc = ref m.bias.(c) in
      for f = 0 to m.n_features - 1 do
        if x.(f) then acc := !acc + row.(f)
      done;
      !acc)

let argmax a =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let predict m x = argmax (scores m x)

let label_bits m =
  let rec bits n acc = if n <= 1 then max acc 1 else bits ((n + 1) / 2) (acc + 1) in
  bits m.n_classes 0

let encode_label m label =
  let nb = label_bits m in
  Array.init nb (fun b -> label land (1 lsl b) <> 0)

let decode_label m bits =
  let nb = label_bits m in
  if Array.length bits <> nb then
    invalid_arg
      (Printf.sprintf "Classify.Model.decode_label: %d bits, expected %d" (Array.length bits) nb);
  let v = ref 0 in
  for b = 0 to nb - 1 do
    if bits.(b) then v := !v lor (1 lsl b)
  done;
  !v

let weight_cell_index m ~class_ ~feature = (class_ * (m.n_features + 1)) + feature

(* The analog path: per-cell lifetime conductance factors, per-read ±LSB
   offsets and ADC clamping, every draw keyed by (seed, site, index)
   through the engine. Disarmed, the factors are exactly 1.0 and the
   offsets 0, and small-integer float arithmetic is exact, so the result
   equals [predict] — but we short-circuit to the integer path anyway so
   the disarmed cost is a single atomic load. *)
let predict_dev ?engine m ~sample x =
  let module I = Fault.Inject in
  match engine with
  | None when not (I.armed ()) -> predict m x
  | _ ->
    check_input m x;
    let weight_factor, read_offset, adc_clamp =
      match engine with
      | Some t ->
        ( (fun ~index -> I.weight_factor_of t ~index),
          (fun ~index -> I.read_offset_of t ~index),
          I.adc_clamp_of t )
      | None -> (I.weight_factor, I.read_offset, I.adc_clamp)
    in
    let dev_scores =
      Array.init m.n_classes (fun c ->
          let row = m.weights.(c) in
          let acc = ref 0.0 in
          for f = 0 to m.n_features - 1 do
            if x.(f) then
              acc :=
                !acc
                +. (float_of_int row.(f)
                   *. weight_factor ~index:(weight_cell_index m ~class_:c ~feature:f))
          done;
          acc :=
            !acc
            +. (float_of_int m.bias.(c)
               *. weight_factor ~index:(weight_cell_index m ~class_:c ~feature:m.n_features));
          let read = int_of_float (Float.round !acc) + read_offset ~index:((sample * m.n_classes) + c) in
          adc_clamp read)
    in
    argmax dev_scores

(* The hoisted analog path: the same draws as [predict_dev], each made
   once. A weight cell's factor depends on (seed, σ, cell) and a read's
   offset on (seed, LSB, read), never on the sample's features, so a run
   draws the factor matrix once per σ and the offsets once for all
   samples. The MAC below keeps [predict_dev]'s float summation order. *)
let weight_factors engine m =
  Array.init m.n_classes (fun c ->
      Array.init (m.n_features + 1) (fun f ->
          Fault.Inject.weight_factor_of engine ~index:(weight_cell_index m ~class_:c ~feature:f)))

let read_offsets engine m ~samples =
  Array.init (samples * m.n_classes) (fun index -> Fault.Inject.read_offset_of engine ~index)

let predict_drawn m ~factors ~offsets ~clamp ~sample x =
  check_input m x;
  let dev_scores =
    Array.init m.n_classes (fun c ->
        let row = m.weights.(c) and factor = factors.(c) in
        let acc = ref 0.0 in
        for f = 0 to m.n_features - 1 do
          if x.(f) then acc := !acc +. (float_of_int row.(f) *. factor.(f))
        done;
        acc := !acc +. (float_of_int m.bias.(c) *. factor.(m.n_features));
        clamp (int_of_float (Float.round !acc) + offsets.((sample * m.n_classes) + c)))
  in
  argmax dev_scores
