module Inject = Fault.Inject
module Defect = Fault.Defect
module Repair = Fault.Repair
module Pla = Cnfet.Pla
module Json = Assess.Json

type config = {
  seed : int;
  jobs : int;
  window : int;
  samples : int;
  trials : int;
  rates : float list;
  sigmas : float list;
  read_noise_lsb : int;
  adc_bits : int;
  spare_rows : int;
  checkpoint : string option;
}

let default =
  {
    seed = 2008;
    jobs = Runtime.Pool.default_jobs ();
    window = 0;
    samples = 512;
    trials = 8;
    rates = [ 0.0; 0.002; 0.005; 0.01; 0.02; 0.05 ];
    sigmas = [ 0.0; 0.05; 0.1; 0.2 ];
    read_noise_lsb = 1;
    adc_bits = 7;
    spare_rows = 2;
    checkpoint = None;
  }

let quick =
  {
    default with
    jobs = 2;
    samples = 128;
    trials = 4;
    rates = [ 0.0; 0.01; 0.05 ];
    sigmas = [ 0.0; 0.1 ];
  }

type point = {
  pt_index : int;
  pt_rate : float;
  pt_sigma : float;
  pt_acc_clean : float;
  pt_acc_analog : float;
  pt_acc_pre : float;
  pt_acc_post : float;
  pt_trials : int;
  pt_injected : int;
  pt_detected : int;
  pt_repaired : int;
  pt_unrepairable : int;
  pt_undetected : int;
  pt_reverify_failed : int;
  pt_recovery_s : float list;
}

type report = {
  ep_seed : int;
  ep_jobs : int;
  ep_samples : int;
  ep_trials : int;
  ep_spare_rows : int;
  ep_read_noise_lsb : int;
  ep_adc_bits : int;
  ep_rates : float list;
  ep_sigmas : float list;
  ep_products : int;
  ep_area : int;
  ep_label_bits : int;
  ep_acc_clean : float;
  ep_confusion : int array array;
  ep_points : point list;
  ep_failures : Sweep.Shard.failure list;
  ep_resumed : int;
  ep_wall_s : float;
}

let point_index config ~rate_i ~sigma_i = (rate_i * List.length config.sigmas) + sigma_i

let grid config index =
  let nsig = List.length config.sigmas in
  (List.nth config.rates (index / nsig), List.nth config.sigmas (index mod nsig))

let point_name config index =
  let rate, sigma = grid config index in
  Printf.sprintf "r%g-s%g" rate sigma

(* ------------------------------------------------------------------ *)
(* Point JSON (shared by checkpoints and reports) *)

let point_json pt =
  let num x = Json.Number x in
  let int x = num (float_of_int x) in
  Json.Obj
    [
      ("index", int pt.pt_index);
      ("rate", num pt.pt_rate);
      ("sigma", num pt.pt_sigma);
      ("acc_clean", num pt.pt_acc_clean);
      ("acc_analog", num pt.pt_acc_analog);
      ("acc_pre", num pt.pt_acc_pre);
      ("acc_post", num pt.pt_acc_post);
      ("trials", int pt.pt_trials);
      ("injected", int pt.pt_injected);
      ("detected", int pt.pt_detected);
      ("repaired", int pt.pt_repaired);
      ("unrepairable", int pt.pt_unrepairable);
      ("undetected", int pt.pt_undetected);
      ("reverify_failed", int pt.pt_reverify_failed);
      ("recovery_s", Json.List (List.map (fun s -> num s) pt.pt_recovery_s));
    ]

let point_of_json j =
  let open Json in
  let ( let* ) o f = Option.bind o f in
  let* pt_index = Option.bind (member "index" j) to_int in
  let* pt_rate = Option.bind (member "rate" j) to_float in
  let* pt_sigma = Option.bind (member "sigma" j) to_float in
  let* pt_acc_clean = Option.bind (member "acc_clean" j) to_float in
  let* pt_acc_analog = Option.bind (member "acc_analog" j) to_float in
  let* pt_acc_pre = Option.bind (member "acc_pre" j) to_float in
  let* pt_acc_post = Option.bind (member "acc_post" j) to_float in
  let* pt_trials = Option.bind (member "trials" j) to_int in
  let* pt_injected = Option.bind (member "injected" j) to_int in
  let* pt_detected = Option.bind (member "detected" j) to_int in
  let* pt_repaired = Option.bind (member "repaired" j) to_int in
  let* pt_unrepairable = Option.bind (member "unrepairable" j) to_int in
  let* pt_undetected = Option.bind (member "undetected" j) to_int in
  let* pt_reverify_failed = Option.bind (member "reverify_failed" j) to_int in
  let* pt_recovery_s =
    match member "recovery_s" j with
    | Some (List xs) ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* v = to_float x in
            Some (v :: acc))
          (Some []) xs
        |> Option.map List.rev
    | _ -> None
  in
  Some
    {
      pt_index;
      pt_rate;
      pt_sigma;
      pt_acc_clean;
      pt_acc_analog;
      pt_acc_pre;
      pt_acc_post;
      pt_trials;
      pt_injected;
      pt_detected;
      pt_repaired;
      pt_unrepairable;
      pt_undetected;
      pt_reverify_failed;
      pt_recovery_s;
    }

(* ------------------------------------------------------------------ *)
(* Checkpoint meta *)

(* Integer FNV-1a over the model's parameters: the checkpoint must not
   survive a weight change. *)
let model_fingerprint (m : Model.t) =
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (v land 0xffff))) 0x100000001b3L
  in
  mix m.Model.n_features;
  mix m.Model.n_classes;
  mix m.Model.weight_bits;
  Array.iter (Array.iter mix) m.Model.weights;
  Array.iter mix m.Model.bias;
  Int64.to_int !h land max_int

(* Pins every knob that shapes point values; jobs/window are absent so a
   resume may widen the pool. *)
let checkpoint_meta config (m : Model.t) =
  let int x = Json.Number (float_of_int x) in
  let nums xs = Json.List (List.map (fun x -> Json.Number x) xs) in
  Json.Obj
    [
      ("classify_checkpoint", int 1);
      ("seed", int config.seed);
      ("samples", int config.samples);
      ("trials", int config.trials);
      ("rates", nums config.rates);
      ("sigmas", nums config.sigmas);
      ("read_noise_lsb", int config.read_noise_lsb);
      ("adc_bits", int config.adc_bits);
      ("spare_rows", int config.spare_rows);
      ("model_fingerprint", int (model_fingerprint m));
    ]

(* ------------------------------------------------------------------ *)
(* The per-point computation *)

(* The fault side of one rate row: defect maps taken from [draws] at
   [rate], accuracy through them before and after [Chaos.recover]. It
   never reads σ, so the row computes it once; the result is a point
   template whose index, σ and analog accuracy each σ point fills in. *)
let fault_pass config ~mapped ~tests ~phys_identity ~acc_clean ~samples ~sample_minterms ~draws
    ~rate =
  let nsamples = config.samples in
  let rows = Pla.num_products mapped.Map.pla + config.spare_rows in
  let accuracy_through ~and_defects ~or_defects phys =
    let labels = Map.labels_defective ~and_defects ~or_defects phys in
    let correct = ref 0 in
    Array.iteri
      (fun s (_, label) -> if labels.(sample_minterms.(s)) = label then incr correct)
      samples;
    float_of_int !correct /. float_of_int nsamples
  in
  let injected = ref 0 in
  let detected = ref 0 in
  let repaired = ref 0 in
  let unrepairable = ref 0 in
  let undetected = ref 0 in
  let reverify_failed = ref 0 in
  let recovery = ref [] in
  let pre_sum = ref 0.0 and post_sum = ref 0.0 in
  for trial = 0 to config.trials - 1 do
    let and_defects, or_defects = Fault.Trial_maps.at_rate draws ~trial ~rate in
    injected := !injected + Defect.defect_count and_defects + Defect.defect_count or_defects;
    let pre = accuracy_through ~and_defects ~or_defects phys_identity in
    pre_sum := !pre_sum +. pre;
    let rv =
      Runtime.Chaos.recover ~spare_rows:config.spare_rows ~tests ~and_defects ~or_defects
        mapped.Map.pla
    in
    recovery := rv.Runtime.Chaos.rv_wall_s :: !recovery;
    let post =
      match rv.Runtime.Chaos.rv_status with
      | `Repaired assignment ->
          incr detected;
          incr repaired;
          let phys = Repair.apply mapped.Map.pla assignment ~rows in
          accuracy_through ~and_defects ~or_defects phys
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
  let trial_mean s = if config.trials = 0 then acc_clean else s /. float_of_int config.trials in
  {
    pt_index = -1;
    pt_rate = rate;
    pt_sigma = Float.nan;
    pt_acc_clean = acc_clean;
    pt_acc_analog = Float.nan;
    pt_acc_pre = trial_mean !pre_sum;
    pt_acc_post = trial_mean !post_sum;
    pt_trials = config.trials;
    pt_injected = !injected;
    pt_detected = !detected;
    pt_repaired = !repaired;
    pt_unrepairable = !unrepairable;
    pt_undetected = !undetected;
    pt_reverify_failed = !reverify_failed;
    pt_recovery_s = List.rev !recovery;
  }

(* [samples] is the evaluation population and [offsets] its read
   offsets, both drawn once per run; [row_faults] hands out the point's
   rate row result, computed by the first point of the row to ask. *)
let point_pipeline config ~m ~samples ~offsets ~row_faults ~index =
  let rate_i = index / List.length config.sigmas in
  let _, sigma = grid config index in
  let open Sweep.Stage in
  stage "classify.analog" (fun () ->
      (* The analog path: D2D σ + read noise + ADC on the reference MAC.
         Seeded at the config seed for every point, so σ scales one
         fixed device population. *)
      let engine =
        Inject.make ~seed:config.seed
          {
            Inject.nothing with
            weight_sigma = sigma;
            read_noise_lsb = config.read_noise_lsb;
            adc_bits = config.adc_bits;
          }
      in
      let factors = Model.weight_factors engine m in
      let clamp = Inject.adc_clamp_of engine in
      let correct = ref 0 in
      Array.iteri
        (fun s (x, label) ->
          if Model.predict_drawn m ~factors ~offsets ~clamp ~sample:s x = label then incr correct)
        samples;
      float_of_int !correct /. float_of_int config.samples)
  >>> stage "classify.faults" (fun acc_analog ->
          { (row_faults rate_i) with pt_index = index; pt_sigma = sigma; pt_acc_analog = acc_analog })

(* ------------------------------------------------------------------ *)
(* The sharded run *)

let validate config =
  if config.samples < 1 then invalid_arg "Classify.Envelope.run: samples < 1";
  if config.trials < 0 then invalid_arg "Classify.Envelope.run: negative trials";
  if config.spare_rows < 0 then invalid_arg "Classify.Envelope.run: negative spare_rows";
  if config.rates = [] then invalid_arg "Classify.Envelope.run: empty rates";
  if config.sigmas = [] then invalid_arg "Classify.Envelope.run: empty sigmas";
  List.iter
    (fun r ->
      if not (r >= 0.0 && r <= 1.0) then
        invalid_arg (Printf.sprintf "Classify.Envelope.run: rate %g not a probability" r))
    config.rates;
  List.iter
    (fun s ->
      if not (s >= 0.0) then
        invalid_arg (Printf.sprintf "Classify.Envelope.run: sigma %g negative" s))
    config.sigmas

let run ?metrics ?(model = Pretrained.model) config =
  validate config;
  let t0 = Unix.gettimeofday () in
  let mapped = Map.lower model in
  let tests, _undetectable = Fault.Atpg.generate mapped.Map.pla in
  let phys_identity = Map.identity_physical mapped ~spare_rows:config.spare_rows in
  (* Clean-device population pass: accuracy + confusion, once. *)
  let nc = model.Model.n_classes in
  let samples =
    Array.init config.samples (fun s -> Dataset.sample Dataset.default ~seed:config.seed s)
  in
  let sample_minterms = Array.map (fun (x, _) -> Fault.Table.minterm x) samples in
  let confusion = Array.make_matrix nc nc 0 in
  let clean_correct = ref 0 in
  Array.iter
    (fun (x, label) ->
      let pred = Map.classify mapped x in
      if pred >= 0 && pred < nc then confusion.(label).(pred) <- confusion.(label).(pred) + 1;
      if pred = label then incr clean_correct)
    samples;
  let acc_clean = float_of_int !clean_correct /. float_of_int config.samples in
  (* Draws that no grid knob changes, made once: the read offsets of
     every (sample, class) and every (trial, cell) crosspoint decision. *)
  let offsets =
    Model.read_offsets
      (Inject.make ~seed:config.seed
         { Inject.nothing with read_noise_lsb = config.read_noise_lsb })
      model ~samples:config.samples
  in
  let draws =
    Fault.Trial_maps.draw (Inject.make ~seed:config.seed Inject.nothing) ~trials:config.trials
      ~rows:(Pla.num_products mapped.Map.pla + config.spare_rows)
      ~and_cols:(Cnfet.Plane.cols (Pla.and_plane mapped.Map.pla))
      ~n_out:(Cnfet.Plane.rows (Pla.or_plane mapped.Map.pla))
      ~max_rate:(List.fold_left Float.max 0.0 config.rates)
  in
  (* One compute-once cell per rate row. The lock is held while the row
     computes, so its σ siblings wait rather than repeat the work; a
     raising pass leaves the cell empty and the next sibling retries. *)
  let row_cells =
    Array.of_list (List.map (fun rate -> (rate, Mutex.create (), ref None)) config.rates)
  in
  let row_faults rate_i =
    let rate, lock, cell = row_cells.(rate_i) in
    Mutex.protect lock (fun () ->
        match !cell with
        | Some pt -> pt
        | None ->
            let pt =
              fault_pass config ~mapped ~tests ~phys_identity ~acc_clean ~samples
                ~sample_minterms ~draws ~rate
            in
            cell := Some pt;
            pt)
  in
  let total = List.length config.rates * List.length config.sigmas in
  let task i =
    match
      Sweep.Stage.exec ?metrics
        (point_pipeline config ~m:model ~samples ~offsets ~row_faults ~index:i)
        ()
    with
    | Ok pt -> Ok pt
    | Error f ->
        Error
          {
            Sweep.Shard.fl_index = i;
            fl_name = point_name config i;
            fl_stage = f.Sweep.Stage.stage;
            fl_error = f.error;
          }
  in
  let outcome =
    Sweep.Shard.run ?metrics
      {
        Sweep.Shard.total;
        jobs = config.jobs;
        window = config.window;
        checkpoint = config.checkpoint;
        meta = checkpoint_meta config model;
        item_json = point_json;
        item_of_json = point_of_json;
        index_of_item = (fun pt -> pt.pt_index);
        name_of_index = point_name config;
        task;
      }
  in
  let points = ref [] and failures = ref [] in
  for i = total - 1 downto 0 do
    match outcome.Sweep.Shard.sh_results.(i) with
    | Some (Ok pt) -> points := pt :: !points
    | Some (Error f) -> failures := f :: !failures
    | None -> assert false
  done;
  {
    ep_seed = config.seed;
    ep_jobs = config.jobs;
    ep_samples = config.samples;
    ep_trials = config.trials;
    ep_spare_rows = config.spare_rows;
    ep_read_noise_lsb = config.read_noise_lsb;
    ep_adc_bits = config.adc_bits;
    ep_rates = config.rates;
    ep_sigmas = config.sigmas;
    ep_products = Pla.num_products mapped.Map.pla;
    ep_area = mapped.Map.area;
    ep_label_bits = Model.label_bits model;
    ep_acc_clean = acc_clean;
    ep_confusion = confusion;
    ep_points = !points;
    ep_failures = !failures;
    ep_resumed = outcome.Sweep.Shard.sh_resumed;
    ep_wall_s = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Views *)

let num x = Json.Number x

let int x = num (float_of_int x)

let failure_json (f : Sweep.Shard.failure) =
  Json.Obj
    [
      ("index", int f.Sweep.Shard.fl_index);
      ("name", Json.String f.fl_name);
      ("stage", Json.String f.fl_stage);
      ("error", Json.String f.fl_error);
    ]

let strip_measured j =
  match j with
  | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "recovery_s") kvs)
  | j -> j

let confusion_json c =
  Json.List
    (Array.to_list (Array.map (fun row -> Json.List (Array.to_list (Array.map int row))) c))

(* Everything that must be bit-identical at any jobs/window and across
   checkpoint resumes; no jobs, no resumed count, no wall clock, no
   latencies. *)
let deterministic_json r =
  Json.Obj
    [
      ("seed", int r.ep_seed);
      ("samples", int r.ep_samples);
      ("trials", int r.ep_trials);
      ("spare_rows", int r.ep_spare_rows);
      ("read_noise_lsb", int r.ep_read_noise_lsb);
      ("adc_bits", int r.ep_adc_bits);
      ("rates", Json.List (List.map num r.ep_rates));
      ("sigmas", Json.List (List.map num r.ep_sigmas));
      ("products", int r.ep_products);
      ("area", int r.ep_area);
      ("label_bits", int r.ep_label_bits);
      ("acc_clean", num r.ep_acc_clean);
      ("confusion", confusion_json r.ep_confusion);
      ("points", Json.List (List.map (fun pt -> strip_measured (point_json pt)) r.ep_points));
      ("failures", Json.List (List.map failure_json r.ep_failures));
    ]

let recovery_percentiles r =
  let h = Runtime.Histogram.create () in
  List.iter
    (fun pt -> List.iter (fun s -> Runtime.Histogram.observe h s) pt.pt_recovery_s)
    r.ep_points;
  if Runtime.Histogram.count h = 0 then []
  else Runtime.Histogram.percentiles h [ 50.; 90.; 99.; 100. ]

let json r =
  let det = match deterministic_json r with Json.Obj kvs -> kvs | _ -> assert false in
  let recovery =
    match recovery_percentiles r with
    | [] -> Json.Obj []
    | ps ->
        Json.Obj
          (List.map
             (fun (p, v) ->
               ((if p = 100. then "max" else Printf.sprintf "p%g" p), num v))
             ps)
  in
  Json.Obj
    (det
    @ [
        ("jobs", int r.ep_jobs);
        ("resumed", int r.ep_resumed);
        ("wall_s", num r.ep_wall_s);
        ("recovery_latency_s", recovery);
        ("points_full", Json.List (List.map point_json r.ep_points));
      ])

let summary r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "classify: seed %d, %d samples x %d trials, %d products (area %d L2), clean accuracy %.4f\n"
    r.ep_seed r.ep_samples r.ep_trials r.ep_products r.ep_area r.ep_acc_clean;
  pf "  %-8s %-6s %-10s %-8s %-8s  %s\n" "rate" "sigma" "analog" "pre" "post" "repair";
  List.iter
    (fun pt ->
      pf "  %-8g %-6g %-10.4f %-8.4f %-8.4f  det %d rep %d unrep %d masked %d\n" pt.pt_rate
        pt.pt_sigma pt.pt_acc_analog pt.pt_acc_pre pt.pt_acc_post pt.pt_detected
        pt.pt_repaired pt.pt_unrepairable pt.pt_undetected)
    r.ep_points;
  (match recovery_percentiles r with
  | [] -> ()
  | ps ->
      pf "  recovery latency (s):";
      List.iter
        (fun (p, v) ->
          if p = 100. then pf " max %.6f" v else pf " p%g %.6f" p v)
        ps;
      pf "\n");
  if r.ep_failures <> [] then pf "  %d contained point failures\n" (List.length r.ep_failures);
  if r.ep_resumed > 0 then pf "  %d points resumed from checkpoint\n" r.ep_resumed;
  Buffer.contents b
