(* Tests for the chaos/robustness stack: deterministic fault injection,
   supervised retry with backoff and deadlines, the cache's rot policy
   under injected store corruption, worker-crash isolation and the
   end-to-end self-healing report. Everything time-dependent runs
   against [Obs.Clock.fixed_step] and an injected no-op sleep, so no
   test waits on a real clock. *)

module Inject = Fault.Inject
module Pool = Runtime.Pool
module Cache = Runtime.Cache
module Supervisor = Runtime.Supervisor
module Metrics = Runtime.Metrics
module Chaos = Runtime.Chaos

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let counter m name = Option.value ~default:0 (List.assoc_opt name (Metrics.counters m))

(* --- injection engine ----------------------------------------------------- *)

let crash_all = { Inject.nothing with Inject.worker_crash = 1.0 }

let test_inject_disarmed_noop () =
  checkb "no engine armed" false (Inject.armed ());
  checkb "tap is No_fault" true (Inject.tap (Inject.Pool_task { index = 0 }) = Inject.No_fault)

let test_inject_deterministic () =
  let draw seed =
    Inject.with_armed ~seed Inject.default (fun t ->
        let actions =
          List.init 200 (fun i ->
              match Inject.tap (Inject.Pool_task { index = i }) with
              | Inject.No_fault -> 'n'
              | Inject.Raise _ -> 'r'
              | Inject.Crash_worker _ -> 'c'
              | Inject.Stall _ -> 's'
              | Inject.Corrupt -> 'x')
        in
        (actions, Inject.counts t, Inject.total t))
  in
  let a1, c1, t1 = draw 7 and a2, c2, t2 = draw 7 in
  checkb "same seed, same decisions" true (a1 = a2);
  checkb "same seed, same counts" true (c1 = c2);
  checki "same seed, same total" t1 t2;
  let a3, _, _ = draw 8 in
  checkb "different seed, different decisions" true (a1 <> a3)

let test_inject_single_engine () =
  Inject.with_armed ~seed:1 Inject.nothing (fun _ ->
      match Inject.arm ~seed:2 Inject.nothing with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "second arm must be rejected");
  checkb "disarmed after with_armed" false (Inject.armed ())

let test_inject_crosspoint_and_drift () =
  Inject.with_armed ~seed:3
    { Inject.nothing with Inject.crosspoint_flip = 1.0; pg_drift = 1.0; pg_drift_v = 0.7 }
    (fun _ ->
      checkb "crosspoint always fires" true
        (Inject.crosspoint_fault ~index:0 <> Fault.Defect.Good);
      let d = Inject.pg_drift ~index:0 in
      checkb "drift magnitude" true (Float.abs (Float.abs d -. 0.7) < 1e-9));
  checkb "good when disarmed" true (Inject.crosspoint_fault ~index:0 = Fault.Defect.Good);
  checkb "no drift when disarmed" true (Inject.pg_drift ~index:0 = 0.)

(* --- backoff --------------------------------------------------------------- *)

let test_backoff_schedule () =
  let p = { Supervisor.Backoff.base_s = 0.01; cap_s = 0.2 } in
  let sched rng_seed = Supervisor.Backoff.schedule p (Util.Rng.create rng_seed) ~attempts:12 in
  let s1 = sched 5 in
  checki "requested length" 12 (List.length s1);
  List.iter
    (fun d -> checkb "delay within [base, cap]" true (d >= p.Supervisor.Backoff.base_s && d <= p.Supervisor.Backoff.cap_s))
    s1;
  checkb "deterministic in seed" true (s1 = sched 5);
  checkb "jitter varies with seed" true (s1 <> sched 6);
  (* The envelope grows: the max over the schedule reaches the cap
     region, the first delay starts near the base. *)
  checkb "first delay is small" true (List.hd s1 <= 3. *. p.Supervisor.Backoff.base_s);
  checkb "envelope reaches cap" true (List.exists (fun d -> d > 0.1) s1)

(* --- supervisor: deadline and retry ---------------------------------------- *)

let fast_clock () = Obs.Clock.fixed_step ~step_ns:1_000_000L () (* 1 ms per reading *)

let test_deadline_expiry () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let release = Atomic.make false in
      let sup =
        Supervisor.create ~clock:(fast_clock ())
          ~sleep:(fun _ -> ())
          ~config:{ Supervisor.default_config with max_attempts = 1; deadline_s = Some 0.01 }
          pool
      in
      (match Supervisor.run ~label:"stuck" sup (fun () -> while not (Atomic.get release) do Domain.cpu_relax () done) with
      | () -> Alcotest.fail "expected Deadline_exceeded"
      | exception Supervisor.Deadline_exceeded { label; attempt; _ } ->
        Alcotest.check Alcotest.string "label" "stuck" label;
        checki "first attempt" 1 attempt);
      Atomic.set release true)

let test_retry_then_success () =
  let metrics = Metrics.create () in
  Pool.with_pool ~metrics ~jobs:1 (fun pool ->
      let sup =
        Supervisor.create ~metrics
          ~sleep:(fun _ -> ())
          ~config:{ Supervisor.default_config with max_attempts = 3 }
          pool
      in
      let tries = Atomic.make 0 in
      let v =
        Supervisor.run sup (fun () ->
            if Atomic.fetch_and_add tries 1 < 2 then failwith "flaky";
            42)
      in
      checki "third attempt succeeded" 42 v;
      checki "two retries counted" 2 (counter metrics "supervisor.retries"))

let test_retries_exhausted () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let sup =
        Supervisor.create
          ~sleep:(fun _ -> ())
          ~config:{ Supervisor.default_config with max_attempts = 2 }
          pool
      in
      match Supervisor.run ~label:"doomed" sup (fun () -> failwith "always") with
      | _ -> Alcotest.fail "expected Retries_exhausted"
      | exception Supervisor.Retries_exhausted { label; attempts; last } ->
        Alcotest.check Alcotest.string "label" "doomed" label;
        checki "attempts" 2 attempts;
        checkb "last exception kept" true (last = Failure "always"))

let test_supervised_run_all_retries_per_index () =
  let metrics = Metrics.create () in
  Pool.with_pool ~metrics ~jobs:2 (fun pool ->
      let sup =
        Supervisor.create ~metrics
          ~sleep:(fun _ -> ())
          ~config:{ Supervisor.default_config with max_attempts = 2 }
          pool
      in
      let failed_once = Atomic.make false in
      let thunks =
        Array.init 6 (fun i () ->
            if i = 3 && not (Atomic.exchange failed_once true) then failwith "transient";
            i * i)
      in
      let r = Supervisor.run_all sup thunks in
      checkb "all results present" true (r = Array.init 6 (fun i -> i * i));
      checki "exactly one retry" 1 (counter metrics "supervisor.retries"))

(* --- cache corruption under injection -------------------------------------- *)

let rot_cover = Mcnc.Generators.majority 3

let test_injected_store_corruption_detected () =
  Inject.with_armed ~seed:11 { Inject.nothing with Inject.cache_corrupt = 1.0 } (fun t ->
      let cache = Cache.create () in
      let compiled, status = Cache.resolve cache (fun () -> rot_cover) in
      checkb "rotten store falls back" true (status = `Fallback);
      let pla = Cnfet.Pla.of_cover rot_cover in
      let vectors = Array.init 8 (fun m -> Array.init 3 (fun i -> m land (1 lsl i) <> 0)) in
      let out = Cache.eval_block compiled (Cache.transpose vectors ~first:0 ~lanes:8) in
      checkb "served correctly via the standalone entry" true
        (Cache.untranspose out ~lanes:8 = Array.map (Cnfet.Pla.eval pla) vectors);
      checki "one corruption detected at store" 1 (Cache.corruptions cache);
      checki "nothing rotten left stored" 0 (Cache.size cache);
      checki "fault counted by engine" 1 (List.assoc "cache_corrupt" (Inject.counts t)))

(* --- worker crash isolation ------------------------------------------------- *)

let test_worker_crash_respawn () =
  let metrics = Metrics.create () in
  Pool.with_pool ~metrics ~jobs:2 (fun pool ->
      Inject.with_armed ~seed:5 crash_all (fun _ ->
          match Pool.await (Pool.submit pool (fun () -> 1)) with
          | _ -> Alcotest.fail "task should have been crashed"
          | exception Inject.Injected_fault _ -> ());
      checkb "crash counted" true (Pool.crashes pool >= 1);
      (* The pool must still serve after losing a worker: the injection is
         disarmed now, so fresh tasks run clean on the respawned domain. *)
      let r = Pool.run_all pool (Array.init 16 (fun i () -> i + 1)) in
      checkb "pool drains after respawn" true (r = Array.init 16 (fun i -> i + 1));
      checkb "respawns recorded" true (counter metrics "pool.respawns" >= 1))

let test_run_all_drains_after_crash () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let done_flags = Array.make 8 false in
      let thunks =
        Array.init 8 (fun i () ->
            if i = 2 then failwith "boom2";
            if i = 5 then failwith "boom5";
            done_flags.(i) <- true)
      in
      (match Pool.run_all pool thunks with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure m -> Alcotest.check Alcotest.string "smallest index wins" "boom2" m);
      Array.iteri
        (fun i flag -> if i <> 2 && i <> 5 then checkb "sibling completed" true flag)
        done_flags)

(* --- end-to-end chaos report ------------------------------------------------ *)

let test_chaos_report_heals () =
  let r = Chaos.run ~seed:42 ~budget_s:30. ~max_rounds:2 ~jobs:2 () in
  checki "requested rounds ran" 2 r.Chaos.rounds;
  checki "no miscompares against the oracle" 0 r.Chaos.miscompares;
  checki "every detected fault handled" 0 (Chaos.detected_unrepaired r);
  checkb "faults were actually injected" true (r.Chaos.injected_total > 0);
  (* Pinned seed-42 values: the batch scenario's rot policy must not move
     the pool-task draws or the other three scenarios. *)
  let row name =
    let sc = List.find (fun sc -> sc.Chaos.sc_name = name) r.Chaos.scenarios in
    Chaos.[ sc.sc_injected; sc.sc_detected; sc.sc_repaired; sc.sc_unrepairable; sc.sc_undetected ]
  in
  let checkl = Alcotest.check Alcotest.(list int) in
  checkl "crosspoint_repair row" [ 4; 4; 4; 0; 0 ] (row "crosspoint_repair");
  checkl "pg_drift_scrub row" [ 12; 8; 8; 0; 4 ] (row "pg_drift_scrub");
  checkl "crossbar_scrub row" [ 0; 0; 0; 0; 0 ] (row "crossbar_scrub");
  List.iter
    (fun (category, n) ->
      checki ("injected " ^ category) n (List.assoc category r.Chaos.injected_by_category))
    [ ("task_raise", 1); ("worker_crash", 1); ("crosspoint_flip", 6); ("pg_drift", 12) ];
  checki "worker crashes" 1 r.Chaos.worker_crashes;
  checki "retries" 2 r.Chaos.retries;
  let json = Chaos.to_json r in
  let contains needle =
    let n = String.length needle and l = String.length json in
    let rec go i = i + n <= l && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> checkb (Printf.sprintf "report has %s" needle) true (contains needle))
    [ "\"degradation\""; "\"detected_unrepaired\""; "\"recovery_latency_s\""; "\"scenarios\"" ]

(* [Chaos.recover] evaluates on bit-sliced tables; its status must match
   the same detect -> repair -> re-verify flow spelled out per vector on
   the [Defect.eval_pla] reference, over seeded random defect draws. *)
let reference_status ~spare_rows ~tests ~and_defects ~or_defects pla =
  let module D = Fault.Defect in
  let module Pla = Cnfet.Pla in
  let truncate m ~rows ~cols =
    let t = D.perfect ~rows ~cols in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        D.set t ~row:r ~col:c (D.kind m ~row:r ~col:c)
      done
    done;
    t
  in
  let products = Pla.num_products pla in
  let and_id = truncate and_defects ~rows:products ~cols:(D.cols and_defects) in
  let or_id = truncate or_defects ~rows:(D.rows or_defects) ~cols:products in
  let n_in = Pla.num_inputs pla in
  let space = List.init (1 lsl n_in) (fun m -> Array.init n_in (fun i -> m land (1 lsl i) <> 0)) in
  if D.defect_count and_defects + D.defect_count or_defects = 0 then `Clean
  else if
    not
      (List.exists
         (fun v -> D.eval_pla ~and_defects:and_id ~or_defects:or_id pla v <> Pla.eval pla v)
         tests)
  then `Undetected
  else
    match Fault.Repair.repair ~spare_rows ~and_defects ~or_defects pla with
    | Fault.Repair.Unrepairable -> `Unrepairable
    | Fault.Repair.Repaired a ->
      let physical = Fault.Repair.apply pla a ~rows:(products + spare_rows) in
      let same v = D.eval_pla ~and_defects ~or_defects physical v = Pla.eval pla v in
      if List.for_all same space then `Repaired a
      else `Reverify_failed

let test_recover_matches_reference () =
  let rng = Util.Rng.create 2008 in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, cover) ->
      let pla = Cnfet.Pla.of_cover cover in
      let tests, _ = Fault.Atpg.generate pla in
      List.iter
        (fun defect_rate ->
          for _ = 1 to 12 do
            let spare_rows = Util.Rng.int rng 3 in
            let and_defects, or_defects =
              Fault.Yield.draw_maps rng pla ~spare_rows ~defect_rate
            in
            let got = (Chaos.recover ~spare_rows ~tests ~and_defects ~or_defects pla).rv_status in
            let want = reference_status ~spare_rows ~tests ~and_defects ~or_defects pla in
            let tag = function
              | `Clean -> "clean"
              | `Undetected -> "undetected"
              | `Repaired _ -> "repaired"
              | `Unrepairable -> "unrepairable"
              | `Reverify_failed -> "reverify_failed"
            in
            Hashtbl.replace seen (tag want) ();
            checkb (Printf.sprintf "%s at rate %g: %s" name defect_rate (tag want)) true (got = want)
          done)
        [ 0.0; 0.02; 0.05; 0.15 ])
    (List.filter (fun (_, c) -> Logic.Cover.num_inputs c <= 6) Mcnc.Generators.all);
  List.iter
    (fun s -> checkb ("status exercised: " ^ s) true (Hashtbl.mem seen s))
    [ "clean"; "undetected"; "repaired"; "unrepairable" ]

let test_chaos_deterministic_injection () =
  let r1 = Chaos.run ~seed:9 ~budget_s:30. ~max_rounds:1 ~jobs:2 () in
  let r2 = Chaos.run ~seed:9 ~budget_s:30. ~max_rounds:1 ~jobs:2 () in
  checkb "same seed, same injected set" true
    (r1.Chaos.injected_by_category = r2.Chaos.injected_by_category);
  checkb "same seed, same scenario tallies" true (r1.Chaos.scenarios = r2.Chaos.scenarios)

let () =
  Alcotest.run "chaos"
    [
      ( "inject",
        [
          Alcotest.test_case "disarmed is no-op" `Quick test_inject_disarmed_noop;
          Alcotest.test_case "seeded determinism" `Quick test_inject_deterministic;
          Alcotest.test_case "single engine" `Quick test_inject_single_engine;
          Alcotest.test_case "crosspoint and drift draws" `Quick test_inject_crosspoint_and_drift;
        ] );
      ( "backoff",
        [ Alcotest.test_case "decorrelated jitter schedule" `Quick test_backoff_schedule ] );
      ( "supervisor",
        [
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "retry then success" `Quick test_retry_then_success;
          Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted;
          Alcotest.test_case "run_all retries per index" `Quick
            test_supervised_run_all_retries_per_index;
        ] );
      (* Named for the circuit breaker this group once tested; the name
         keeps the test's id stable. *)
      ( "breaker",
        [
          Alcotest.test_case "injected store corruption" `Quick
            test_injected_store_corruption_detected;
        ] );
      ( "crash isolation",
        [
          Alcotest.test_case "worker crash respawn" `Quick test_worker_crash_respawn;
          Alcotest.test_case "run_all drains after failures" `Quick
            test_run_all_drains_after_crash;
        ] );
      ( "self-healing",
        [
          Alcotest.test_case "chaos report heals" `Quick test_chaos_report_heals;
          Alcotest.test_case "deterministic injection" `Quick test_chaos_deterministic_injection;
          Alcotest.test_case "recover matches per-vector reference" `Quick
            test_recover_matches_reference;
        ] );
    ]
