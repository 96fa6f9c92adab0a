(* The repository benchmark: one workload per run, measured from outside
   the libraries through their public entry points.

     main.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones; the last line of stdout is the JSON result. Exits 1 on
   any miscompare, failed item or digest mismatch. *)

open Common

(* Every per-layer metric, in the order printed. A workload reports the
   layers it runs; the others did no work on it and read 0. *)
let per_layer =
  [
    ("serve.wire.decode_us", "us");
    ("serve.admission.admit_us", "us");
    ("logic.pla_io.parse_us", "us");
    ("runtime.cache.lookup_us", "us");
    ("runtime.cache.hit_ratio", "ratio");
    ("serve.tenants.evictions_per_req", "count");
    ("runtime.cache.eval_block_us", "us");
    ("runtime.batch.map_us", "us");
    ("runtime.cache.eval_tail_us", "us");
    ("serve.wire.result_build_us", "us");
    ("serve.wire.encode_us", "us");
    ("serve.replay.residual_us", "us");
    ("serve.server_eval_ms", "ms");
    ("serve.outside_eval_ms", "ms");
    ("serve.client.cpu_share", "ratio");
    ("sweep.generate_ms", "ms");
    ("sweep.phase_ms", "ms");
    ("sweep.fold_ms", "ms");
    ("sweep.map_ms", "ms");
    ("fpga.place_ms", "ms");
    ("fpga.route_ms", "ms");
    ("fpga.timing_ms", "ms");
    ("sweep.yield_ms", "ms");
    ("sweep.replay.residual_s", "s");
    ("sweep.shard.residual_s", "s");
    ("classify.map.lower_s", "s");
    ("fault.atpg.generate_s", "s");
    ("classify.model.predict_dev_us", "us");
    ("classify.map.classify_defective_us", "us");
    ("runtime.chaos.recover_ms", "ms");
    ("classify.residual_s", "s");
    ("trace.traced_wall_s", "s");
    ("trace.untimed_wall_s", "s");
  ]

let complete (r : result) =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.name per_layer) then
        failwith ("unlisted per-layer metric " ^ m.name))
    r.metrics;
  let value name =
    match List.find_opt (fun m -> m.name = name) r.metrics with Some m -> m.value | None -> 0.
  in
  { r with metrics = List.map (fun (name, u) -> metric name u (value name)) per_layer }

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-hot|serve-churn|sweep|classify --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some x when x > 0. -> x | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let seconds = !seconds and trace = !trace in
  Printf.eprintf "perfbench: workload %s, seed %d, %g s, trace %b, nproc %d\n%!" !workload seed
    seconds trace nproc;
  let serve kind =
    if trace then Serve_bench.traced kind ~seed ~seconds
    else Serve_bench.e2e kind ~seed ~seconds
  in
  let h0 = host_ticks () in
  let r =
    match !workload with
    | "serve-hot" -> serve Serve_bench.Hot
    | "serve-churn" -> serve Serve_bench.Churn
    | "sweep" -> if trace then Sweep_bench.traced ~seed ~seconds else Sweep_bench.e2e ~seed ~seconds
    | "classify" ->
      if trace then Classify_bench.traced ~seed ~seconds else Classify_bench.e2e ~seed ~seconds
    | _ -> usage ()
  in
  Printf.eprintf "host: steal %.1f%% of the machine's CPU time during the run\n%!"
    (100. *. steal_share h0 (host_ticks ()));
  emit (if trace then complete r else r)
