(* The sweep workload: Sweep.Drive.run over the 96 cells of
   default_space, one whole tile per unit of work. *)

open Common
module Drive = Sweep.Drive

let space = Drive.default_space

let tile = List.length space.inputs * List.length space.outputs * List.length space.products

let config ~seed ~profiles =
  { Drive.default with profiles; seed; jobs; window = 0; space; checkpoint = None }

type tile = { r : Drive.result; wall : float; ran : float; cpu : float; mismatch : bool }

(* One tile at [seed], with its deterministic view checked against the
   record. *)
let run_tile seed =
  let cpu0 = cpu_seconds () in
  let r, wall, ran = time_ran (fun () -> Drive.run (config ~seed ~profiles:tile)) in
  let cpu = cpu_seconds () -. cpu0 in
  Printf.eprintf "sweep tile: wall %.3f s, run time %.3f s, cpu %.3f s\n%!" wall ran cpu;
  let digest = digest_json (Sweep.Report.deterministic_json r) in
  { r; wall; ran; cpu; mismatch = check_digest ~workload:"sweep" ~seed digest }

let item_latency_s (it : Drive.item) = sum (List.map snd it.it_stage_s)

let failures (r : Drive.result) = List.length r.r_failures

(* The fixed reference unit every run checks, whatever its seed: the
   first 12 profiles of the default seed's population. True on a failure
   or a digest mismatch. *)
let check_reference () =
  let r = Drive.run (config ~seed:Drive.default.seed ~profiles:12) in
  let digest = digest_json (Sweep.Report.deterministic_json r) in
  check_digest ~required:true ~workload:"sweep-reference" ~seed:Drive.default.seed digest
  || failures r > 0

let e2e ~seed ~seconds =
  (* Time to the first result: Drive.run on a one-profile population of
     the default seed, the same work in every run. It starts the pool,
     runs the profile's pipeline, drains the pool and builds the report,
     so a fixed cost Drive.run gains shows here. *)
  let setup = median_ran 21 (fun () -> Drive.run (config ~seed:Drive.default.seed ~profiles:1)) in
  let reference_mismatch = check_reference () in
  let tiles, rss = run_units ~seconds (fun k -> run_tile (unit_seed ~seed k)) in
  let profiles = tile * List.length tiles in
  let latencies =
    List.concat_map (fun t -> List.map (fun it -> 1000. *. item_latency_s it) t.r.r_items) tiles
  in
  let mismatches =
    List.length (List.filter (fun t -> t.mismatch) tiles) + if reference_mismatch then 1 else 0
  in
  Printf.eprintf "sweep: %d tiles of %d profiles; profile latency p50 %.4f p90 %.4f p99 %.4f ms\n%!"
    (List.length tiles) tile (percentile 50. latencies) (percentile 90. latencies)
    (percentile 99. latencies);
  {
    attempted = profiles + 1;
    failed = List.fold_left (fun a t -> a + failures t.r) mismatches tiles;
    mismatches;
    metrics =
      [
        (* the median tile's rate: a burst of host noise moves one tile *)
        metric "throughput_per_s" "1/s"
          (median (List.map (fun t -> float_of_int tile /. t.ran) tiles));
        metric "cpu_ms_per_item" "ms"
          (1000. *. sum (List.map (fun t -> t.cpu) tiles) /. float_of_int profiles);
        metric "setup_s" "s" setup;
        metric "peak_rss_mb" "MB" rss;
      ];
  }

(* The traced run: one pooled tile for the shard residual, then the same
   tile's item pipelines run serially under Stage.exec ~observe, and once
   more without the observer. *)
let traced ~seed ~seconds:_ =
  let { r; wall; mismatch; _ } = run_tile seed in
  let stage_total = sum (List.map item_latency_s r.r_items) in
  let shard_residual = (wall *. float_of_int jobs) -. stage_total in
  let cfg = config ~seed ~profiles:tile in
  let stages = ref [] in
  let observe ~stage ~dur_s =
    match List.assoc_opt stage !stages with
    | Some acc -> acc := !acc +. dur_s
    | None -> stages := !stages @ [ (stage, ref dur_s) ]
  in
  let replay observe =
    let items = ref [] and failed = ref 0 and wall = ref 0. in
    for index = 0 to tile - 1 do
      let t0 = now () in
      (match Sweep.Stage.exec ?observe (Drive.item_pipeline cfg ~index) () with
      | Ok it -> items := it :: !items
      | Error _ -> incr failed);
      wall := !wall +. (now () -. t0)
    done;
    (List.rev !items, !failed, !wall)
  in
  let items, replay_failed, traced_wall = replay (Some observe) in
  let _, _, untimed_wall = replay None in
  (* The serial replay must sweep exactly the pooled population. *)
  let strip (it : Drive.item) =
    Assess.Json.to_string (Drive.item_json { it with it_stage_s = [] })
  in
  let same = List.map strip items = List.map strip r.r_items in
  if not same then prerr_endline "sweep: serial replay differs from the pooled population";
  let stage_sum = sum (List.map (fun (_, a) -> !a) !stages) in
  let replay_residual = traced_wall -. stage_sum in
  let n = float_of_int tile in
  Printf.eprintf
    "sweep trace: replay wall %.3f s = stages %.3f s + residual %.3f s; untimed %.3f s; pooled wall %.3f s x %d jobs = stages %.3f s + shard residual %.3f s\n%!"
    traced_wall stage_sum replay_residual untimed_wall wall jobs stage_total shard_residual;
  let mismatches = (if mismatch then 1 else 0) + if same then 0 else 1 in
  {
    attempted = 2 * tile;
    failed = failures r + replay_failed + mismatches;
    mismatches;
    metrics =
      List.map (fun (stage, a) -> metric (stage ^ "_ms") "ms" (1000. *. !a /. n)) !stages
      @ [
          metric "sweep.replay.residual_s" "s" replay_residual;
          metric "sweep.shard.residual_s" "s" shard_residual;
          metric "trace.traced_wall_s" "s" traced_wall;
          metric "trace.untimed_wall_s" "s" untimed_wall;
        ];
  }
