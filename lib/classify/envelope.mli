(** The degradation envelope: classification accuracy over a
    fault-rate × noise-σ grid, before and after closed-loop repair.

    Each grid point is one item of a {!Sweep.Shard} population: computed
    on the domain pool under a bounded window, checkpointed as JSONL,
    contained on failure, and — the load-bearing property — a pure
    function of [(seed, point index)]. Coupling is deliberate:

    {ul
    {- every point evaluates the {e same} sample population (streams
       keyed by [(seed, sample)]);}
    {- D2D weight factors are keyed per cell at the shared seed, so a
       higher σ scales the same unit-normal draws — the device
       population is fixed while the knob turns;}
    {- defect cells are keyed per (trial, cell) at the shared seed and a
       cell fails iff its uniform is below the rate, so defect sets are
       {e nested} across rates and accuracy degrades monotonically.}}

    Per rate row, the crossbar path measures accuracy through the drawn
    defects on the identity-programmed array (pre), hands the array to
    {!Runtime.Chaos.recover} (ATPG detect → spare-row repair →
    re-verify, wall-clock timed), and measures again on the repaired
    physical array (post). That pass never reads σ, so the row computes
    it once: the first of its points to ask does the work under the
    row's lock, and its σ siblings wait and reuse the result, recovery
    latencies included. Per point, the analog path measures the
    reference evaluator under D2D/read-noise/ADC corruption, with every
    cell factor and read offset drawn once ({!Model.predict_drawn},
    equal to {!Model.predict_dev}). Accuracies and counts are
    deterministic; recovery latencies are measurement and excluded from
    the deterministic view. *)

type config = {
  seed : int;
  jobs : int;  (** worker domains *)
  window : int;  (** max in-flight points; 0 = [4 × jobs] *)
  samples : int;  (** evaluation population size *)
  trials : int;  (** defect-map draws per grid point *)
  rates : float list;  (** crosspoint fault rates (grid rows) *)
  sigmas : float list;  (** D2D weight σ values (grid columns) *)
  read_noise_lsb : int;
  adc_bits : int;
  spare_rows : int;
  checkpoint : string option;
}

val default : config
(** 512 samples × 8 trials over 6 rates × 4 σ, seed 2008. *)

val quick : config
(** 128 samples × 4 trials over 3 rates × 2 σ — the [--quick] / CI
    smoke / golden-regression configuration. *)

type point = {
  pt_index : int;
  pt_rate : float;
  pt_sigma : float;
  pt_acc_clean : float;  (** mapped crossbar, no faults (population accuracy) *)
  pt_acc_analog : float;  (** reference evaluator under σ/±LSB/ADC *)
  pt_acc_pre : float;  (** through defects, identity mapping, before repair (trial mean) *)
  pt_acc_post : float;  (** through defects on the repaired array (trial mean) *)
  pt_trials : int;
  pt_injected : int;  (** defective cells drawn, summed over trials *)
  pt_detected : int;  (** trials where the ATPG set exposed the defects *)
  pt_repaired : int;  (** trials repaired and re-verified *)
  pt_unrepairable : int;
  pt_undetected : int;  (** trials with defects masked on the test set *)
  pt_reverify_failed : int;
  pt_recovery_s : float list;  (** measured recover() wall seconds, trial order *)
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
  ep_products : int;  (** mapped PLA products after minimization *)
  ep_area : int;  (** folded CNFET PLA area, L² *)
  ep_label_bits : int;
  ep_acc_clean : float;
  ep_confusion : int array array;  (** clean devices: [true class × predicted], over the population *)
  ep_points : point list;  (** index order; failed indices absent *)
  ep_failures : Sweep.Shard.failure list;
  ep_resumed : int;
  ep_wall_s : float;
}

val point_index : config -> rate_i:int -> sigma_i:int -> int
(** Grid linearization: [rate_i × |sigmas| + sigma_i]. *)

val point_json : point -> Assess.Json.t

val point_of_json : Assess.Json.t -> point option
(** Total inverse of {!point_json} — floats survive byte-exactly through
    the [%.17g] codec, so a checkpoint resume is bit-exact. *)

val run : ?metrics:Runtime.Metrics.t -> ?model:Model.t -> config -> report
(** Lower [model] (default {!Pretrained.model}), measure the clean
    population once, draw the read offsets and every (trial, cell)
    crosspoint decision once, then shard the grid. Raises
    [Invalid_argument] on an empty grid, out-of-range knobs, a model
    too wide to lower, or an array with {!Fault.Trial_maps.trial_span}
    or more crosspoints. *)

val deterministic_json : report -> Assess.Json.t
(** The identity view: everything except recovery latencies and wall
    time — byte-identical at any [jobs]/[window], golden-compared in
    CI. *)

val json : report -> Assess.Json.t
(** The full measured report (BENCH_classify.json): the deterministic
    view plus per-point recovery latencies and pooled
    p50/p90/p99/max. *)

val recovery_percentiles : report -> (float * float) list
(** [(percentile, seconds)] over all points' recovery samples, at
    50/90/99/100. Empty when no recoveries ran. *)

val summary : report -> string
(** Human-readable accuracy table (rate × σ) plus repair counters. *)
