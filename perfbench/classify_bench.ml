(* The classify workload: Classify.Envelope.run at Envelope.default
   (512 samples x 8 trials over 6 rates x 4 sigmas), one whole envelope
   per unit of work. *)

open Common
module Envelope = Classify.Envelope
module Map = Classify.Map
module Inject = Fault.Inject
module Defect = Fault.Defect

let config ~seed = { Envelope.default with seed; jobs; window = 0; checkpoint = None }

let points (c : Envelope.config) = List.length c.rates * List.length c.sigmas

type envelope = { r : Envelope.report; wall : float; ran : float; cpu : float; mismatch : bool }

let run_envelope seed =
  let cpu0 = cpu_seconds () in
  let r, wall, ran = time_ran (fun () -> Envelope.run (config ~seed)) in
  let cpu = cpu_seconds () -. cpu0 in
  Printf.eprintf "classify envelope: wall %.3f s, run time %.3f s, cpu %.3f s\n%!" wall ran cpu;
  let digest = digest_json (Envelope.deterministic_json r) in
  { r; wall; ran; cpu; mismatch = check_digest ~workload:"classify" ~seed digest }

(* The fixed reference unit every run checks, whatever its seed: a small
   envelope (64 samples, 2 trials) at the default seed. True on a failure
   or a digest mismatch. *)
let check_reference () =
  let seed = Envelope.default.seed in
  let r = Envelope.run { (config ~seed) with samples = 64; trials = 2 } in
  let digest = digest_json (Envelope.deterministic_json r) in
  check_digest ~required:true ~workload:"classify-reference" ~seed digest || r.ep_failures <> []

(* What a user waits for before the first grid point: the lowering and
   its ATPG test set. *)
let setup () =
  let mapped = Map.lower Classify.Pretrained.model in
  ignore (Fault.Atpg.generate mapped.Map.pla : bool array list * Fault.Atpg.fault list)

let e2e ~seed ~seconds =
  let setup = median_ran 3 setup in
  let reference_mismatch = check_reference () in
  let units, rss = run_units ~seconds (fun k -> run_envelope (unit_seed ~seed k)) in
  let per_unit = points (config ~seed) in
  let n_points = per_unit * List.length units in
  let recovery_ms =
    List.concat_map
      (fun u ->
        List.concat_map
          (fun (pt : Envelope.point) -> List.map (fun s -> 1000. *. s) pt.pt_recovery_s)
          u.r.ep_points)
      units
  in
  Printf.eprintf
    "classify: %d envelopes of %d points; recovery latency over %d trials: p50 %.4f p90 %.4f p99 %.4f ms\n%!"
    (List.length units) per_unit (List.length recovery_ms) (percentile 50. recovery_ms)
    (percentile 90. recovery_ms) (percentile 99. recovery_ms);
  let mismatches =
    List.length (List.filter (fun u -> u.mismatch) units) + if reference_mismatch then 1 else 0
  in
  {
    attempted = n_points + 1;
    failed = List.fold_left (fun a u -> a + List.length u.r.ep_failures) mismatches units;
    mismatches;
    metrics =
      [
        (* the median envelope's rate: a burst of host noise moves one unit *)
        metric "throughput_per_s" "1/s"
          (median (List.map (fun u -> float_of_int per_unit /. u.ran) units));
        metric "cpu_ms_per_item" "ms"
          (1000. *. sum (List.map (fun u -> u.cpu) units) /. float_of_int n_points);
        metric "setup_s" "s" setup;
        metric "peak_rss_mb" "MB" rss;
      ];
  }

(* ------------------------------------------------------------------ *)
(* The traced replay: the envelope's per-point computation rebuilt from
   the classify, fault and runtime layers' public calls, run serially. *)

type layers = {
  mutable lower : float;
  mutable atpg : float;
  mutable predict_dev : float;
  mutable predict_calls : int;
  mutable classify_defective : float;
  mutable defective_calls : int;
  mutable recover : float;
  mutable recover_calls : int;
}

let layers () =
  {
    lower = 0.;
    atpg = 0.;
    predict_dev = 0.;
    predict_calls = 0;
    classify_defective = 0.;
    defective_calls = 0;
    recover = 0.;
    recover_calls = 0;
  }

(* Envelope's defect-map draw: cell decisions keyed by (trial, cell). *)
let trial_span = 1_000_000

let draw_trial_maps engine ~trial ~rows ~and_cols ~n_out =
  let ctr = ref (trial * trial_span) in
  let draw m ~row ~col =
    incr ctr;
    match Inject.crosspoint_fault_of engine ~index:!ctr with
    | Defect.Good -> ()
    | k -> Defect.set m ~row ~col k
  in
  let and_defects = Defect.perfect ~rows ~cols:and_cols in
  for r = 0 to rows - 1 do
    for c = 0 to and_cols - 1 do
      draw and_defects ~row:r ~col:c
    done
  done;
  let or_defects = Defect.perfect ~rows:n_out ~cols:rows in
  for r = 0 to n_out - 1 do
    for c = 0 to rows - 1 do
      draw or_defects ~row:r ~col:c
    done
  done;
  (and_defects, or_defects)

(* One serial pass over the whole grid; returns the points (recovery
   latencies left empty) and the pass's wall. *)
let replay (cfg : Envelope.config) acc ~timed =
  let tick () = if timed then now () else 0. in
  let start = now () in
  let t0 = tick () in
  let mapped = Map.lower Classify.Pretrained.model in
  let t1 = tick () in
  let tests, _ = Fault.Atpg.generate mapped.Map.pla in
  let t2 = tick () in
  acc.lower <- acc.lower +. (t1 -. t0);
  acc.atpg <- acc.atpg +. (t2 -. t1);
  let m = mapped.Map.model in
  let pla = mapped.Map.pla in
  let phys_identity = Map.identity_physical mapped ~spare_rows:cfg.spare_rows in
  let sample_at s = Classify.Dataset.sample Classify.Dataset.default ~seed:cfg.seed s in
  let accuracy correct = float_of_int correct /. float_of_int cfg.samples in
  let clean = ref 0 in
  for s = 0 to cfg.samples - 1 do
    let x, label = sample_at s in
    if Map.classify mapped x = label then incr clean
  done;
  let acc_clean = accuracy !clean in
  let nsig = List.length cfg.sigmas in
  let point index =
    let rate = List.nth cfg.rates (index / nsig) and sigma = List.nth cfg.sigmas (index mod nsig) in
    let engine =
      Inject.make ~seed:cfg.seed
        {
          Inject.nothing with
          weight_sigma = sigma;
          read_noise_lsb = cfg.read_noise_lsb;
          adc_bits = cfg.adc_bits;
        }
    in
    let correct = ref 0 in
    for s = 0 to cfg.samples - 1 do
      let x, label = sample_at s in
      let t = tick () in
      let y = Classify.Model.predict_dev ~engine m ~sample:s x in
      acc.predict_dev <- acc.predict_dev +. (tick () -. t);
      if y = label then incr correct
    done;
    acc.predict_calls <- acc.predict_calls + cfg.samples;
    let acc_analog = accuracy !correct in
    let engine = Inject.make ~seed:cfg.seed { Inject.nothing with crosspoint_flip = rate } in
    let products = Cnfet.Pla.num_products pla in
    let rows = products + cfg.spare_rows in
    let and_cols = Cnfet.Plane.cols (Cnfet.Pla.and_plane pla) in
    let n_out = Cnfet.Plane.rows (Cnfet.Pla.or_plane pla) in
    let accuracy_through ~and_defects ~or_defects phys =
      let correct = ref 0 in
      for s = 0 to cfg.samples - 1 do
        let x, label = sample_at s in
        let t = tick () in
        let y = Map.classify_defective ~and_defects ~or_defects phys x in
        acc.classify_defective <- acc.classify_defective +. (tick () -. t);
        if y = label then incr correct
      done;
      acc.defective_calls <- acc.defective_calls + cfg.samples;
      accuracy !correct
    in
    let injected = ref 0 and detected = ref 0 and repaired = ref 0 and unrepairable = ref 0 in
    let undetected = ref 0 and reverify_failed = ref 0 in
    let pre_sum = ref 0. and post_sum = ref 0. in
    for trial = 0 to cfg.trials - 1 do
      let and_defects, or_defects = draw_trial_maps engine ~trial ~rows ~and_cols ~n_out in
      injected := !injected + Defect.defect_count and_defects + Defect.defect_count or_defects;
      let pre = accuracy_through ~and_defects ~or_defects phys_identity in
      pre_sum := !pre_sum +. pre;
      let t = tick () in
      let rv =
        Runtime.Chaos.recover ~spare_rows:cfg.spare_rows ~tests ~and_defects ~or_defects pla
      in
      acc.recover <- acc.recover +. (tick () -. t);
      acc.recover_calls <- acc.recover_calls + 1;
      let post =
        match rv.Runtime.Chaos.rv_status with
        | `Repaired assignment ->
          incr detected;
          incr repaired;
          accuracy_through ~and_defects ~or_defects (Fault.Repair.apply pla assignment ~rows)
        | `Unrepairable ->
          incr detected;
          incr unrepairable;
          pre
        | `Reverify_failed ->
          incr detected;
          incr reverify_failed;
          pre
        | `Undetected ->
          incr undetected;
          pre
        | `Clean -> pre
      in
      post_sum := !post_sum +. post
    done;
    let trial_mean s = if cfg.trials = 0 then acc_clean else s /. float_of_int cfg.trials in
    {
      Envelope.pt_index = index;
      pt_rate = rate;
      pt_sigma = sigma;
      pt_acc_clean = acc_clean;
      pt_acc_analog = acc_analog;
      pt_acc_pre = trial_mean !pre_sum;
      pt_acc_post = trial_mean !post_sum;
      pt_trials = cfg.trials;
      pt_injected = !injected;
      pt_detected = !detected;
      pt_repaired = !repaired;
      pt_unrepairable = !unrepairable;
      pt_undetected = !undetected;
      pt_reverify_failed = !reverify_failed;
      pt_recovery_s = [];
    }
  in
  let pts = List.init (points cfg) point in
  (pts, now () -. start)

let traced ~seed ~seconds:_ =
  let cfg = config ~seed in
  let { r; mismatch; _ } = run_envelope seed in
  let acc = layers () in
  let pts, traced_wall = replay cfg acc ~timed:true in
  let _, untimed_wall = replay cfg (layers ()) ~timed:false in
  let view (pt : Envelope.point) =
    Assess.Json.to_string (Envelope.point_json { pt with pt_recovery_s = [] })
  in
  let same = List.map view pts = List.map view r.ep_points in
  if not same then prerr_endline "classify: serial replay differs from Envelope.run";
  let predict_total = acc.predict_dev and defective_total = acc.classify_defective in
  let residual =
    traced_wall -. acc.lower -. acc.atpg -. predict_total -. defective_total -. acc.recover
  in
  Printf.eprintf
    "classify trace: replay wall %.3f s = lower %.3f + atpg %.3f + predict_dev %.3f + classify_defective %.3f + recover %.3f + residual %.3f s; untimed %.3f s\n%!"
    traced_wall acc.lower acc.atpg predict_total defective_total acc.recover residual untimed_wall;
  let per calls total = if calls = 0 then 0. else total /. float_of_int calls in
  let mismatches = (if mismatch then 1 else 0) + if same then 0 else 1 in
  {
    attempted = 2 * points cfg;
    failed = List.length r.ep_failures + mismatches;
    mismatches;
    metrics =
      [
        metric "classify.map.lower_s" "s" acc.lower;
        metric "fault.atpg.generate_s" "s" acc.atpg;
        metric "classify.model.predict_dev_us" "us" (1e6 *. per acc.predict_calls predict_total);
        metric "classify.map.classify_defective_us" "us"
          (1e6 *. per acc.defective_calls defective_total);
        metric "runtime.chaos.recover_ms" "ms" (1e3 *. per acc.recover_calls acc.recover);
        metric "classify.residual_s" "s" residual;
        metric "trace.traced_wall_s" "s" traced_wall;
        metric "trace.untimed_wall_s" "s" untimed_wall;
      ];
  }
