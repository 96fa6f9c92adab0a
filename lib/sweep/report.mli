(** Report views over a sweep result.

    Two disciplines coexist here and must not be mixed. The
    {e deterministic} views ({!front_json}, {!deterministic_json}) are
    pure functions of the swept values — no wall-clock, no job count, no
    stage latencies — so a fixed-seed sweep renders them byte-identically
    on any machine at any [--jobs]; the golden regression and the
    cross-job determinism property both compare these bytes. The
    {e measurement} views ({!bench_json}, {!to_metrics}) carry everything
    else: latency percentiles, throughput, wall time. *)

type fronts = {
  area_frequency : Drive.item list;  (** area min × frequency max *)
  area_yield : Drive.item list;  (** area min × yield max *)
  frequency_yield : Drive.item list;  (** frequency max × yield max *)
  area_frequency_yield : Drive.item list;  (** all three axes *)
}

val fronts : Drive.item list -> fronts
(** Pareto fronts over the population, each in item (= index) order. *)

type stage_stat = { st_name : string; st_count : int; st_p50_s : float; st_p95_s : float }

val stage_stats : Drive.item list -> stage_stat list
(** Per-stage latency summary pooled across items, in first-seen
    (pipeline) order. Percentiles by nearest-rank on the sorted pool. *)

val front_json : Drive.result -> Assess.Json.t
(** The golden-regression view: seed, space, front membership (items
    without [stage_s]). Deterministic. *)

val deterministic_json : Drive.result -> Assess.Json.t
(** Everything value-like: config echo (minus [jobs]), every item (minus
    [stage_s]), every failure, plus {!front_json}'s fronts. Two sweeps
    agree on these bytes iff they swept identical populations. *)

val bench_json : Drive.result -> Assess.Json.t
(** The full artifact: {!deterministic_json} plus jobs, wall seconds,
    resumed count, throughput and {!stage_stats}. *)

val to_metrics : Drive.result -> Assess.Run.metric list
(** One single-sample metric per measured quantity — [sweep.wall_s],
    [sweep.items_per_s], and [sweep.stage.<name>.p50_s] / [.p95_s] per
    stage — for folding repeated sweeps into an {!Assess.Run} artifact
    the [bench-ab] gate can compare. *)

val merge_metrics : Assess.Run.metric list list -> Assess.Run.metric list
(** Zip per-repeat metric lists (as from {!to_metrics}) into multi-sample
    metrics, keyed by name; a metric missing from some repeat keeps only
    the samples it has. *)

val summary : Drive.result -> string
(** Human digest: population, failures, front sizes, hot stages. *)
