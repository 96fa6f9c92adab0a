(* The classification-under-fire battery: quantization round-trip bounds,
   the checked-in pretrained weights pinned against a fresh training run,
   clean-device bit-identity of the mapped crossbar against the integer
   reference over every minterm, deterministic fault reproduction at fixed
   (seed, site, index), repair restoring clean accuracy, jobs-invariance
   and checkpoint-resume bit-exactness of the envelope, a byte-exact
   golden regression on the quick envelope's deterministic view, and a
   planted mis-mapped weight row that the property battery must catch and
   shrink.

   Set DUMP_CLASSIFY=<path> to rewrite the golden JSON after an
   intentional change to the model, mapping, fault model or report. *)

module Model = Classify.Model
module Map = Classify.Map
module Train = Classify.Train
module Dataset = Classify.Dataset
module Envelope = Classify.Envelope
module Inject = Fault.Inject

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-12)

let all_minterms n =
  List.init (1 lsl n) (fun m -> Array.init n (fun i -> (m lsr i) land 1 = 1))

(* --- quantization -------------------------------------------------------- *)

let test_quantize_roundtrip () =
  (* Round-to-nearest at the max-abs scale: every dequantized value is
     within scale/2 of its float source, extremes land on the window
     edges, and the all-zero corner picks the 1.0 fallback scale. *)
  let rng = Util.Rng.create 77 in
  let w = Array.init 4 (fun _ -> Array.init 6 (fun _ -> Util.Rng.float rng 8.0 -. 4.0)) in
  let b = Array.init 4 (fun _ -> Util.Rng.float rng 2.0 -. 1.0) in
  let scale = Train.quantize_scale ~weight_bits:4 w b in
  let qw, qb = Train.quantize ~weight_bits:4 w b in
  Array.iteri
    (fun c row ->
      Array.iteri
        (fun f q ->
          checkb "weight within half a step" true
            (Float.abs ((float_of_int q *. scale) -. w.(c).(f)) <= (scale /. 2.) +. 1e-12))
        qw.(c);
      ignore row)
    w;
  Array.iteri
    (fun c q ->
      checkb "bias within half a step" true
        (Float.abs ((float_of_int q *. scale) -. b.(c)) <= (scale /. 2.) +. 1e-12))
    qb;
  let flat = Array.to_list (Array.concat (Array.to_list qw)) @ Array.to_list qb in
  checkb "all values inside the signed window" true (List.for_all (fun q -> abs q <= 7) flat);
  (* the largest magnitude maps to an extreme of the window *)
  checkb "max magnitude saturates the window" true (List.exists (fun q -> abs q = 7) flat);
  checkf "zero model gets unit scale" 1.0 (Train.quantize_scale ~weight_bits:4 [| [| 0. |] |] [| 0. |])

let test_pretrained_pins_training () =
  (* The checked-in literal must be exactly what the in-tree trainer
     produces — drift in trainer, dataset or quantizer fails here. *)
  let fresh = Train.train Dataset.default in
  let m = Classify.Pretrained.model in
  checki "n_features" m.Model.n_features fresh.Model.n_features;
  checki "n_classes" m.Model.n_classes fresh.Model.n_classes;
  checki "weight_bits" m.Model.weight_bits fresh.Model.weight_bits;
  checkb "weights byte-identical" true (m.Model.weights = fresh.Model.weights);
  checkb "bias byte-identical" true (m.Model.bias = fresh.Model.bias)

let test_label_codec_total () =
  let m = Classify.Pretrained.model in
  for l = 0 to m.Model.n_classes - 1 do
    checki "encode/decode round-trip" l (Model.decode_label m (Model.encode_label m l))
  done;
  (* decode is total on any label_bits-wide vector, classful or not *)
  let bits = Model.label_bits m in
  for v = 0 to (1 lsl bits) - 1 do
    let vec = Array.init bits (fun i -> (v lsr i) land 1 = 1) in
    checki "decode total" v (Model.decode_label m vec)
  done

(* --- mapping -------------------------------------------------------------- *)

let test_mapped_bit_identical_all_minterms () =
  (* The acceptance bit: mapped crossbar inference equals the integer
     reference on every one of the 2^8 inputs, minimized or not. *)
  let m = Classify.Pretrained.model in
  let mapped = Map.lower m in
  let raw = Map.lower ~minimize:false m in
  List.iter
    (fun x ->
      let want = Model.predict m x in
      checki "minimized mapping matches reference" want (Map.classify mapped x);
      checki "raw minterm mapping matches reference" want (Map.classify raw x))
    (all_minterms m.Model.n_features);
  checkb "minimization shrank the cover" true
    (Cnfet.Pla.num_products mapped.Map.pla < Cnfet.Pla.num_products raw.Map.pla);
  checkb "folded area measured" true (mapped.Map.area > 0)

(* The envelope reads labels out of one bit-sliced table per defective
   array; every entry must equal the per-vector reference. *)
let test_labels_defective_vs_reference () =
  let mapped = Map.lower Classify.Pretrained.model in
  let phys = Map.identity_physical mapped ~spare_rows:2 in
  let rng = Util.Rng.create 11 in
  for _ = 1 to 6 do
    let and_defects, or_defects =
      Fault.Yield.draw_maps rng mapped.Map.pla ~spare_rows:2 ~defect_rate:0.03
    in
    let labels = Map.labels_defective ~and_defects ~or_defects phys in
    List.iter
      (fun x ->
        checki "table label = per-vector label"
          (Map.classify_defective ~and_defects ~or_defects phys x)
          labels.(Fault.Table.minterm x))
      (all_minterms mapped.Map.model.Model.n_features)
  done

let test_mapping_grid_corners () =
  (* Corners of the supported model space lower and stay bit-identical:
     minimal (1 feature, 2 classes), degenerate all-zero weights, and a
     non-power-of-two class count whose label encoding has unused codes. *)
  let corner ~n_features ~n_classes ~weights ~bias =
    let m = Model.make ~n_features ~n_classes ~weight_bits:4 ~weights ~bias in
    let mapped = Map.lower m in
    List.iter
      (fun x -> checki "corner bit-identity" (Model.predict m x) (Map.classify mapped x))
      (all_minterms n_features)
  in
  corner ~n_features:1 ~n_classes:2 ~weights:[| [| 3 |]; [| -3 |] |] ~bias:[| 0; 1 |];
  corner ~n_features:3 ~n_classes:2 ~weights:[| [| 0; 0; 0 |]; [| 0; 0; 0 |] |] ~bias:[| 0; 0 |];
  corner ~n_features:4 ~n_classes:3
    ~weights:[| [| 7; -7; 0; 1 |]; [| -1; 2; 3; 0 |]; [| 0; 0; -5; 5 |] |]
    ~bias:[| -2; 0; 2 |]

(* --- fault determinism ---------------------------------------------------- *)

let test_fault_draws_reproduce () =
  (* Every corruption is a pure function of (seed, site, index): two
     engines at the same seed agree draw for draw; a different seed or a
     different index disagrees somewhere. *)
  let plan = { Inject.nothing with weight_sigma = 0.1; read_noise_lsb = 1; adc_bits = 7 } in
  let e1 = Inject.make ~seed:2008 plan in
  let e2 = Inject.make ~seed:2008 plan in
  let e3 = Inject.make ~seed:2009 plan in
  let probe e index = (Inject.weight_factor_of e ~index, Inject.read_offset_of e ~index) in
  let differs = ref false in
  for idx = 0 to 199 do
    checkb "same seed, same draw" true (probe e1 idx = probe e2 idx);
    if probe e1 idx <> probe e3 idx then differs := true
  done;
  checkb "different seed changes some draw" true !differs;
  (* crosspoint faults too: same (seed, index) -> same defect decision,
     and raising the rate on the same seed only adds defects *)
  let flips rate = { Inject.nothing with crosspoint_flip = rate } in
  let lo = Inject.make ~seed:2008 (flips 0.02) in
  let lo' = Inject.make ~seed:2008 (flips 0.02) in
  let hi = Inject.make ~seed:2008 (flips 0.2) in
  let broke = ref 0 in
  for index = 0 to 199 do
    let d = Inject.crosspoint_fault_of lo ~index in
    checkb "crosspoint stream reproduces" true (d = Inject.crosspoint_fault_of lo' ~index);
    if d <> Fault.Defect.Good then begin
      incr broke;
      checkb "defect sets nest across rates" true
        (Inject.crosspoint_fault_of hi ~index <> Fault.Defect.Good)
    end
  done;
  checkb "low rate drew at least one defect" true (!broke > 0)

let test_disarmed_is_reference () =
  (* With the global engine disarmed, predict_dev is one atomic load plus
     predict — bit-identical for every sample index. *)
  let m = Classify.Pretrained.model in
  for i = 0 to 63 do
    let x, _ = Dataset.sample Dataset.default ~seed:31 i in
    checki "disarmed predict_dev = predict" (Model.predict m x) (Model.predict_dev m ~sample:i x)
  done

(* --- envelope ------------------------------------------------------------- *)

let tiny_config ?checkpoint ?(jobs = 1) () =
  {
    Envelope.quick with
    Envelope.jobs;
    samples = 64;
    trials = 2;
    rates = [ 0.0; 0.01; 0.05 ];
    sigmas = [ 0.0; 0.1 ];
    checkpoint;
  }

let test_envelope_degrades_and_repairs () =
  let r = Envelope.run (tiny_config ()) in
  checki "no failed points" 0 (List.length r.Envelope.ep_failures);
  checki "full grid" 6 (List.length r.Envelope.ep_points);
  (* monotone degradation in rate at every sigma, by nested defect sets *)
  List.iteri
    (fun si _ ->
      let col =
        List.filter (fun p -> p.Envelope.pt_index mod 2 = si) r.Envelope.ep_points
        |> List.map (fun p -> p.Envelope.pt_acc_pre)
      in
      let rec mono = function
        | a :: b :: tl ->
          checkb "pre-repair accuracy monotone in rate" true (b <= a +. 1e-9);
          mono (b :: tl)
        | _ -> ()
      in
      mono col)
    [ (); () ];
  List.iter
    (fun p ->
      let open Envelope in
      checkb "repair never hurts" true (p.pt_acc_post >= p.pt_acc_pre -. 1e-9);
      checki "detected splits into repair outcomes" p.pt_detected
        (p.pt_repaired + p.pt_unrepairable + p.pt_reverify_failed);
      checkb "ledger bounded by trials" true (p.pt_detected + p.pt_undetected <= p.pt_trials);
      if p.pt_rate = 0.0 then checkb "clean points need no repair" true (p.pt_injected = 0);
      if p.pt_repaired = p.pt_trials && p.pt_trials > 0 then
        checkf "full repair restores clean accuracy" r.ep_acc_clean p.pt_acc_post)
    r.Envelope.ep_points;
  (* the clean-device confusion matrix sums to the population *)
  let total = Array.fold_left (Array.fold_left ( + )) 0 r.Envelope.ep_confusion in
  checki "confusion counts the population" 64 total

let test_envelope_jobs_invariant () =
  let det c = Assess.Json.to_string ~indent:2 (Envelope.deterministic_json (Envelope.run c)) in
  checkb "deterministic view identical at jobs 1 and 3" true
    (det (tiny_config ~jobs:1 ()) = det (tiny_config ~jobs:3 ()))

let test_envelope_checkpoint_resume () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "classify_ckpt_test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir "envelope.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let full = Envelope.run (tiny_config ~checkpoint:path ()) in
  let want = Assess.Json.to_string (Envelope.deterministic_json full) in
  (* truncate the checkpoint to its header plus two items and resume *)
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let keep = List.filteri (fun i _ -> i < 3) (List.rev !lines) in
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (l ^ "\n")) keep;
  close_out oc;
  let resumed = Envelope.run (tiny_config ~checkpoint:path ()) in
  checki "two points came from the checkpoint" 2 resumed.Envelope.ep_resumed;
  checkb "resumed report bit-exact" true
    (Assess.Json.to_string (Envelope.deterministic_json resumed) = want);
  Sys.remove path

(* A rate row's fault pass is computed once by whichever of its σ points
   asks first. Resume from a checkpoint holding only point 2 (rate row
   1, σ column 0): point 3 must compute row 1 by itself, and the view
   must equal an uninterrupted run's, at jobs 1 and 2. *)
let test_envelope_resume_one_sigma_of_row () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "classify_ckpt_row_test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir "envelope.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let full = Envelope.run (tiny_config ~checkpoint:path ()) in
  let want = Assess.Json.to_string (Envelope.deterministic_json full) in
  let lines = In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n' in
  let header = List.hd lines and item = List.nth lines 3 in
  checkb "kept line is point 2" true
    (match Assess.Json.parse item with
    | Ok j -> Option.map (fun pt -> pt.Envelope.pt_index) (Envelope.point_of_json j) = Some 2
    | Error _ -> false);
  List.iter
    (fun jobs ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (header ^ "\n" ^ item ^ "\n"));
      let resumed = Envelope.run (tiny_config ~checkpoint:path ~jobs ()) in
      checki "one point came from the checkpoint" 1 resumed.Envelope.ep_resumed;
      checkb
        (Printf.sprintf "resumed report bit-exact at jobs %d" jobs)
        true
        (Assess.Json.to_string (Envelope.deterministic_json resumed) = want))
    [ 1; 2 ];
  Sys.remove path

(* --- golden regression ---------------------------------------------------- *)

let golden_path name =
  if Sys.file_exists (Filename.concat "golden" name) then Filename.concat "golden" name
  else Filename.concat "test/golden" name

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let test_golden_quick_envelope () =
  let r = Envelope.run Envelope.quick in
  checki "quick envelope fully succeeds" 0 (List.length r.Envelope.ep_failures);
  let json = Assess.Json.to_string ~indent:2 (Envelope.deterministic_json r) ^ "\n" in
  (match Sys.getenv_opt "DUMP_CLASSIFY" with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc json;
    close_out oc
  | None -> ());
  let golden = read_file (golden_path "classify_quick.json") in
  if json <> golden then
    Alcotest.failf
      "quick envelope drifted from golden/classify_quick.json (%d vs %d bytes). If the change \
       is intentional, regenerate with: DUMP_CLASSIFY=$PWD/test/golden/classify_quick.json dune \
       exec test/test_classify.exe -- test envelope"
      (String.length json) (String.length golden)

(* The full default grid, pinned to the bytes
   [cnfet_tool classify --seed 2008 --det-out] wrote for
   golden/classify_default.json. *)
let test_golden_default_envelope () =
  let r = Envelope.run { Envelope.default with jobs = 2 } in
  let json = Assess.Json.to_string ~indent:2 (Envelope.deterministic_json r) ^ "\n" in
  let golden = read_file (golden_path "classify_default.json") in
  if json <> golden then
    Alcotest.failf "default envelope drifted from golden/classify_default.json (%d vs %d bytes)"
      (String.length json) (String.length golden)

(* --- the planted mis-mapped weight row ------------------------------------ *)

(* A lowering with the classic mapping mistake: the first two weight rows
   are swapped on the way to the crossbar, so the mapped array computes
   argmax of a permuted score vector. The mapped-vs-reference law must
   catch it and shrink to a small witness. *)
let buggy_lower (m : Model.t) =
  let w = Array.map Array.copy m.Model.weights in
  let b = Array.copy m.Model.bias in
  let t = w.(0) in
  w.(0) <- w.(1);
  w.(1) <- t;
  let tb = b.(0) in
  b.(0) <- b.(1);
  b.(1) <- tb;
  Map.lower
    (Model.make ~n_features:m.Model.n_features ~n_classes:m.Model.n_classes
       ~weight_bits:m.Model.weight_bits ~weights:w ~bias:b)

let planted_arb = Prop.Gens.arb_classify_case ~min_classes:3 ()

let planted_law (c : Prop.Gens.classify_case) =
  let m = Prop.Gens.model_of_case c in
  let mapped = buggy_lower m in
  List.for_all
    (fun x -> Map.classify mapped x = Model.predict m x)
    (all_minterms c.Prop.Gens.cl_n_features)

let test_planted_mismap_caught () =
  match
    Prop.Runner.run ~count:500 ~seed:2008 ~name:"planted/mis-mapped-weight-row" planted_arb
      planted_law
  with
  | Prop.Runner.Passed n -> Alcotest.failf "planted mis-mapping not caught in %d cases" n
  | Prop.Runner.Failed f ->
    let shrunk : Prop.Gens.classify_case = f.Prop.Runner.f_value in
    checkb "shrunk case still fails" false (planted_law shrunk);
    checkb "shrinking made progress" true (f.Prop.Runner.f_shrink_steps > 0);
    (* the shrinker drives weights toward zero; the witness should keep
       only a handful of non-zero cells *)
    let nonzero =
      Array.fold_left
        (fun n row -> n + Array.fold_left (fun n w -> if w <> 0 then n + 1 else n) 0 row)
        0 shrunk.Prop.Gens.cl_weights
      + Array.fold_left (fun n b -> if b <> 0 then n + 1 else n) 0 shrunk.Prop.Gens.cl_bias
    in
    if nonzero > 6 then Alcotest.failf "shrunk witness has %d non-zero cells (want <= 6)" nonzero;
    (match
       Prop.Runner.run_case planted_arb planted_law ~case_seed:f.Prop.Runner.f_case_seed
         ~size:f.Prop.Runner.f_size ~case_index:0
     with
    | Some f' ->
      checkb "replay reaches the same shrunk witness" true (f'.Prop.Runner.f_value = shrunk)
    | None -> Alcotest.fail "replay did not reproduce the failure")

(* --- driver ---------------------------------------------------------------- *)

let () =
  Alcotest.run "classify"
    [
      ( "train",
        [
          Alcotest.test_case "quantization round-trip bound" `Quick test_quantize_roundtrip;
          Alcotest.test_case "pretrained pins the trainer" `Quick test_pretrained_pins_training;
          Alcotest.test_case "label codec total" `Quick test_label_codec_total;
        ] );
      ( "map",
        [
          Alcotest.test_case "bit-identical on all minterms" `Quick
            test_mapped_bit_identical_all_minterms;
          Alcotest.test_case "grid corners lower and match" `Quick test_mapping_grid_corners;
          Alcotest.test_case "defective label table vs reference" `Quick
            test_labels_defective_vs_reference;
        ] );
      ( "faults",
        [
          Alcotest.test_case "draws reproduce from (seed, site, index)" `Quick
            test_fault_draws_reproduce;
          Alcotest.test_case "disarmed path is the reference" `Quick test_disarmed_is_reference;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "degrades monotonically, repair restores" `Quick
            test_envelope_degrades_and_repairs;
          Alcotest.test_case "jobs-invariant deterministic view" `Quick
            test_envelope_jobs_invariant;
          Alcotest.test_case "checkpoint resume bit-exact" `Quick test_envelope_checkpoint_resume;
          Alcotest.test_case "resume from one sigma point of a row" `Quick
            test_envelope_resume_one_sigma_of_row;
          Alcotest.test_case "golden quick envelope" `Quick test_golden_quick_envelope;
          Alcotest.test_case "golden default envelope" `Quick test_golden_default_envelope;
        ] );
      ( "planted",
        [
          Alcotest.test_case "mis-mapped weight row caught and shrunk" `Quick
            test_planted_mismap_caught;
        ] );
    ]
