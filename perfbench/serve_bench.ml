(* The serve workloads: a fresh `cnfet_tool serve` daemon per run, driven
   closed-loop over its Unix socket by nproc client threads, each waiting
   for its reply before sending again. Frames and their oracle outputs
   come precomputed from Serve_replay, so the clock times the server,
   not Pla.eval. *)

open Common
module Wire = Serve.Wire
module R = Perfbench_serve.Serve_replay

type kind = Hot | Churn

let name = function Hot -> "serve-hot" | Churn -> "serve-churn"

let build_pool kind ~seed =
  match kind with Hot -> R.hot_pool ~seed | Churn -> R.churn_pool ~seed

(* ------------------------------------------------------------------ *)
(* Connections and the daemon process. *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
    Unix.close fd;
    raise e

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

type daemon = { pid : int; sock : string }

(* Built by run.sh next to the benchmark; runs start from the checkout root. *)
let exe = "_build/default/bin/cnfet_tool.exe"

let run_dir = "perfbench/_run"

(* SIGINT, as an operator stops the daemon. OCaml runs the handler on
   whichever thread next reaches a safe point, so a signal the kernel
   delivered to a blocked worker can wait for the next connection: one
   connect after 200 ms lets the accept loop see it. *)
let stop d =
  (try Unix.kill d.pid Sys.sigint with Unix.Unix_error _ -> ());
  let t0 = now () in
  let poked = ref false in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () -. t0 < 10. ->
      if (not !poked) && now () -. t0 > 0.2 then begin
        poked := true;
        try close (connect d.sock) with Unix.Unix_error _ -> ()
      end;
      Unix.sleepf 0.002;
      reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid : int * Unix.process_status)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* Start the daemon with its default configuration; returns it and the
   time from launch until it answered Ping. *)
let launch () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let sock = Printf.sprintf "%s/serve-%d.sock" run_dir (Unix.getpid ()) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid = Unix.create_process exe [| exe; "serve"; "--sock"; sock |] devnull devnull devnull in
  Unix.close devnull;
  let d = { pid; sock } in
  let fail msg =
    stop d;
    failwith msg
  in
  let rec wait () =
    match connect sock with
    | conn ->
      let answer =
        Wire.write_message conn.oc Wire.Ping;
        Wire.read_message conn.ic
      in
      close conn;
      if answer <> `Msg Wire.Pong then fail "daemon did not answer Ping with Pong"
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then failwith "daemon exited at start";
      if now () -. t0 > 30. then fail "daemon did not listen within 30 s";
      Unix.sleepf 0.0002;
      wait ()
  in
  wait ();
  (d, now () -. t0)

(* ------------------------------------------------------------------ *)
(* The closed-loop client. *)

type tally = {
  mutable completed : int;
  mutable failed : int;
  mutable miscompares : int;
  mutable hits : int;
  mutable latency_s : float list;
  mutable outside_s : float list;  (* latency minus the daemon's eval_ns *)
  mutable eval_s : float list;
  mutable last : float;
}

let tally () =
  {
    completed = 0;
    failed = 0;
    miscompares = 0;
    hits = 0;
    latency_s = [];
    outside_s = [];
    eval_s = [];
    last = 0.;
  }

(* Send one request; read its reply, comparing every chunk byte for byte
   with the oracle matrix. *)
let exchange conn (r : R.request) =
  output_string conn.oc r.frame;
  flush conn.oc;
  let rows = Wire.matrix_rows r.expected and width = Wire.matrix_width r.expected in
  let stride = Wire.matrix_stride width in
  let seen = ref 0 and same = ref true in
  let rec read () =
    match Wire.read_message conn.ic with
    | `Msg (Wire.Result_chunk { first; outputs }) ->
      let len = Wire.matrix_rows outputs in
      if
        Wire.matrix_width outputs <> width
        || first <> !seen
        || first + len > rows
        || outputs.m_data <> String.sub r.expected.m_data (first * stride) (len * stride)
      then same := false;
      seen := !seen + len;
      read ()
    | `Msg (Wire.Eval_done { total; cache_hit; eval_ns }) ->
      `Done (!same && total = rows && !seen = rows, cache_hit, Int64.to_float eval_ns /. 1e9)
    | `Msg _ -> `Refused
    | `Eof | `Error _ -> failwith "serve: connection lost"
  in
  read ()

let record t ~t0 = function
  | `Done (ok, hit, eval_s) ->
    let t1 = now () in
    t.completed <- t.completed + 1;
    if not ok then t.miscompares <- t.miscompares + 1;
    if hit then t.hits <- t.hits + 1;
    t.latency_s <- (t1 -. t0) :: t.latency_s;
    t.eval_s <- eval_s :: t.eval_s;
    t.outside_s <- (t1 -. t0 -. eval_s) :: t.outside_s;
    t.last <- t1
  | `Refused -> t.failed <- t.failed + 1

(* Client [k] of [nproc] sends pool entries k, k + nproc, ...: each
   program comes from one connection only, so on serve-churn a repeat
   finds its tenant evicted long before. *)
let client conn pool ~k ~deadline t =
  let n = Array.length pool in
  let i = ref k in
  while now () < deadline do
    let r = pool.(!i mod n) in
    i := !i + nproc;
    let t0 = now () in
    record t ~t0 (exchange conn r)
  done

type live = {
  tallies : tally list;
  warm : tally;
  wall : float;
  ran : float;  (* the wall as run time: less the share stolen *)
  cpu_share : float;
  daemon_cpu : float;  (* daemon CPU seconds over the measured interval *)
  rss_mb : float;
  setup : float;
}

(* Launch the daemon 41 times for the set-up time, keep the last one,
   send every pooled frame once, then load it for [seconds]. *)
let live ~seconds pool =
  let launches = 41 in
  let setups = ref [] in
  let rec start k =
    let d, s = launch () in
    setups := s :: !setups;
    if k = launches then d
    else begin
      stop d;
      start (k + 1)
    end
  in
  let h0 = host_ticks () in
  let d = start 1 in
  let setup = median !setups *. (1. -. steal_share h0 (host_ticks ())) in
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      let conns = List.init nproc (fun _ -> connect d.sock) in
      Fun.protect
        ~finally:(fun () -> List.iter close conns)
        (fun () ->
          let warm = tally () in
          Array.iter
            (fun r ->
              let t0 = now () in
              record warm ~t0 (exchange (List.hd conns) r))
            pool;
          (* after a fixed amount of work: every pooled program compiled
             once, and on serve-churn the tenant caches full *)
          let rss_mb = peak_rss_mb (string_of_int d.pid) in
          let tallies = List.map (fun _ -> tally ()) conns in
          let cpu0 = cpu_seconds () and daemon_cpu0 = process_cpu_seconds d.pid in
          let h0 = host_ticks () in
          let t0 = now () in
          let deadline = t0 +. seconds in
          let threads =
            List.mapi
              (fun k (conn, t) ->
                Thread.create (fun () -> client conn pool ~k ~deadline t) ())
              (List.combine conns tallies)
          in
          List.iter Thread.join threads;
          let wall = List.fold_left (fun a t -> max a t.last) t0 tallies -. t0 in
          let ran = wall *. (1. -. steal_share h0 (host_ticks ())) in
          let cpu_share = (cpu_seconds () -. cpu0) /. wall in
          let daemon_cpu = process_cpu_seconds d.pid -. daemon_cpu0 in
          { tallies; warm; wall; ran; cpu_share; daemon_cpu; rss_mb; setup }))

let total f tallies = List.fold_left (fun a t -> a + f t) 0 tallies

(* Request counts off the live run, with its client-headroom check: the
   client threads share one OCaml domain, so one core is their ceiling;
   past 85% of it the client, not the daemon, sets the pace. *)
let summary kind l =
  let all = l.warm :: l.tallies in
  let completed = total (fun t -> t.completed) l.tallies in
  let attempted = total (fun t -> t.completed + t.failed) all in
  let miscompares = total (fun t -> t.miscompares) all in
  let failed = total (fun t -> t.failed) all + miscompares in
  let hit_ratio =
    float_of_int (total (fun t -> t.hits) l.tallies) /. float_of_int (max 1 completed)
  in
  Printf.eprintf "%s: %d requests in %.3f s wall, %.3f s run time, hit ratio %.4f\n%!"
    (name kind) completed l.wall l.ran hit_ratio;
  Printf.eprintf "%s client headroom: benchmark CPU %.3f of one core over %.3f s: %s\n%!"
    (name kind) l.cpu_share l.wall
    (if l.cpu_share >= 0.85 then "CLIENT SATURATED, throughput is the client's ceiling"
     else "server-bound");
  (attempted, failed, miscompares, hit_ratio)

let print_latencies kind l =
  let ms = List.concat_map (fun t -> List.map (fun s -> 1000. *. s) t.latency_s) l.tallies in
  Printf.eprintf "%s latency over %d requests: p50 %.4f p90 %.4f p99 %.4f ms\n%!" (name kind)
    (List.length ms) (percentile 50. ms) (percentile 90. ms) (percentile 99. ms)

let e2e kind ~seed ~seconds =
  let pool = build_pool kind ~seed in
  let l = live ~seconds pool in
  let attempted, failed, miscompares, _ = summary kind l in
  print_latencies kind l;
  let completed = total (fun t -> t.completed) l.tallies in
  {
    attempted;
    failed;
    mismatches = miscompares;
    metrics =
      [
        (* completed requests per second of run time *)
        metric "throughput_per_s" "1/s" (float_of_int completed /. l.ran);
        metric "cpu_ms_per_item" "ms" (1000. *. l.daemon_cpu /. float_of_int completed);
        metric "setup_s" "s" l.setup;
        metric "peak_rss_mb" "MB" l.rss_mb;
      ];
  }

(* ------------------------------------------------------------------ *)
(* The traced run: a live phase for the daemon-side split, then the
   same frames replayed in-process, alternating traced and untimed
   passes over the pool. *)

let replay_passes pool ~seconds =
  let st = R.create_state () in
  Fun.protect
    ~finally:(fun () -> R.release_state st)
    (fun () ->
      let traced = R.layers () and untimed = R.layers () in
      let miscompares = ref 0 in
      let pass acc ~timed =
        Array.iter
          (fun (r : R.request) ->
            let out = R.replay st acc ~timed r.frame in
            if
              out.m_data <> r.expected.m_data
              || Wire.matrix_width out <> Wire.matrix_width r.expected
            then incr miscompares)
          pool
      in
      (* the warm pass, as the live run sends *)
      pass (R.layers ()) ~timed:false;
      let evictions0 = Serve.Tenants.tenant_evictions st.tenants in
      let t0 = now () in
      while traced.requests = 0 || now () -. t0 < seconds do
        pass traced ~timed:true;
        pass untimed ~timed:false
      done;
      let evictions = Serve.Tenants.tenant_evictions st.tenants - evictions0 in
      (traced, untimed, evictions, !miscompares))

let traced kind ~seed ~seconds =
  let pool = build_pool kind ~seed in
  let l = live ~seconds pool in
  let attempted, failed, miscompares, hit_ratio = summary kind l in
  let tr, un, evictions, replay_miscompares = replay_passes pool ~seconds in
  let n = float_of_int tr.requests in
  let us x = 1e6 *. x /. n in
  let residual = tr.wall -. R.covered tr in
  Printf.eprintf
    "%s trace: %d requests, replay wall %.4f s = layers %.4f s + residual %.4f s; untimed %.4f s (%d requests); replay hit ratio %.4f; %d replay miscompares\n%!"
    (name kind) tr.requests tr.wall (R.covered tr) residual un.wall un.requests
    (float_of_int (tr.hits + un.hits) /. float_of_int (tr.requests + un.requests))
    replay_miscompares;
  let p50 xs = 1000. *. percentile 50. xs in
  let from_tallies f = List.concat_map f l.tallies in
  {
    attempted = attempted + tr.requests + un.requests;
    failed = failed + replay_miscompares;
    mismatches = miscompares + replay_miscompares;
    metrics =
      [
        metric "serve.wire.decode_us" "us" (us tr.decode);
        metric "serve.admission.admit_us" "us" (us tr.admit);
        metric "logic.pla_io.parse_us" "us" (us tr.parse);
        metric "runtime.cache.lookup_us" "us" (us tr.lookup);
        metric "runtime.cache.hit_ratio" "ratio" hit_ratio;
        metric "serve.tenants.evictions_per_req" "count"
          (float_of_int evictions /. float_of_int (tr.requests + un.requests));
        metric "runtime.cache.eval_block_us" "us" (us tr.eval_block);
        metric "runtime.batch.map_us" "us" (us tr.batch_map);
        metric "runtime.cache.eval_tail_us" "us" (us tr.eval_tail);
        metric "serve.wire.result_build_us" "us" (us tr.result_build);
        metric "serve.wire.encode_us" "us" (us tr.encode);
        metric "serve.replay.residual_us" "us" (us residual);
        metric "serve.server_eval_ms" "ms" (p50 (from_tallies (fun t -> t.eval_s)));
        metric "serve.outside_eval_ms" "ms" (p50 (from_tallies (fun t -> t.outside_s)));
        metric "serve.client.cpu_share" "ratio" l.cpu_share;
        metric "trace.traced_wall_s" "s" tr.wall;
        metric "trace.untimed_wall_s" "s" un.wall;
      ];
  }
