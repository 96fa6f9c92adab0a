(* Recovery layer over the pool. The pool isolates failures (a poisoned
   task fails alone); this module decides what to do about them: wait no
   longer than a deadline, retry with decorrelated-jitter backoff, and
   stop trusting the pool altogether once it has burned through too many
   workers. Time and sleeping are injected so every schedule runs under
   [Obs.Clock.fixed_step] in tests without real waiting. *)

module Backoff = struct
  type policy = { base_s : float; cap_s : float }

  let default = { base_s = 1e-3; cap_s = 0.25 }

  (* AWS-style "decorrelated jitter": each delay is drawn uniformly from
     [base, 3 * prev], so the envelope grows exponentially while
     concurrent retries spread out instead of thundering together. *)
  let next p rng ~prev_s =
    let prev = if prev_s <= 0. then p.base_s else prev_s in
    let hi = Float.max p.base_s (3. *. prev) in
    Float.min p.cap_s (p.base_s +. (Util.Rng.float rng 1.0 *. (hi -. p.base_s)))

  let schedule p rng ~attempts =
    let rec go prev k acc =
      if k <= 0 then List.rev acc
      else
        let d = next p rng ~prev_s:prev in
        go d (k - 1) (d :: acc)
    in
    go 0. attempts []
end

exception Deadline_exceeded of { label : string; deadline_s : float; attempt : int }

exception Retries_exhausted of { label : string; attempts : int; last : exn }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { label; deadline_s; attempt } ->
      Some
        (Printf.sprintf "Supervisor.Deadline_exceeded (%s: attempt %d outlived %gs)" label
           attempt deadline_s)
    | Retries_exhausted { label; attempts; last } ->
      Some
        (Printf.sprintf "Supervisor.Retries_exhausted (%s: %d attempts, last: %s)" label
           attempts (Printexc.to_string last))
    | _ -> None)

type config = {
  max_attempts : int;
  deadline_s : float option;
  backoff : Backoff.policy;
  poll_s : float;
  crash_tolerance : int;
}

let default_config =
  {
    max_attempts = 3;
    deadline_s = None;
    backoff = Backoff.default;
    poll_s = 5e-4;
    crash_tolerance = 8;
  }

type t = {
  pool : Pool.t;
  metrics : Metrics.t option;
  clock : Obs.Clock.t;
  sleep : float -> unit;
  cfg : config;
  jitter : Util.Rng.t;
  jitter_lock : Mutex.t;
}

let tick ?(by = 1) t name =
  match t.metrics with Some m -> Metrics.incr_named ~by m name | None -> ()

let create ?metrics ?(clock = Obs.Clock.monotonic) ?(sleep = Unix.sleepf) ?(seed = 0)
    ?(config = default_config) pool =
  if config.max_attempts < 1 then invalid_arg "Supervisor.create: max_attempts < 1";
  {
    pool;
    metrics;
    clock;
    sleep;
    cfg = config;
    jitter = Util.Rng.create seed;
    jitter_lock = Mutex.create ();
  }

let pool t = t.pool

let config t = t.cfg

let healthy t = Pool.crashes t.pool <= t.cfg.crash_tolerance

let next_delay t ~prev_s =
  Mutex.lock t.jitter_lock;
  let d = Backoff.next t.cfg.backoff t.jitter ~prev_s in
  Mutex.unlock t.jitter_lock;
  d

let now_s t = Int64.to_float (t.clock ()) /. 1e9

(* Wait for a future, but no longer than the configured deadline: poll
   [Pool.peek] and hand the interim back to the injected sleep. The
   abandoned task keeps running in the pool; only its result is
   dropped. *)
let await_deadline t fut ~label ~attempt =
  match t.cfg.deadline_s with
  | None -> Pool.await_result fut
  | Some deadline_s ->
    let start = now_s t in
    let rec wait () =
      match Pool.peek fut with
      | Some outcome -> outcome
      | None ->
        if now_s t -. start >= deadline_s then begin
          tick t "supervisor.deadline_expiries";
          Obs.Span.instant
            ~args:[ ("label", label); ("attempt", string_of_int attempt) ]
            "supervisor.deadline_exceeded";
          Error (Deadline_exceeded { label; deadline_s; attempt }, Printexc.get_callstack 0)
        end
        else begin
          t.sleep t.cfg.poll_s;
          wait ()
        end
    in
    wait ()

let exec_once t ~label ~attempt thunk =
  if healthy t then begin
    match Pool.submit t.pool thunk with
    | fut -> await_deadline t fut ~label ~attempt
    | exception e -> Error (e, Printexc.get_callstack 0)
  end
  else begin
    (* The pool has burned too many workers to be trusted with new work:
       degrade to sequential execution in the submitting domain rather
       than refuse service. *)
    tick t "supervisor.serial_fallbacks";
    match thunk () with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  end

let rec recover t ~label thunk ~attempt ~prev_delay = function
  | Ok v -> v
  | Error (e, bt) ->
    if attempt >= t.cfg.max_attempts then begin
      tick t "supervisor.giveups";
      if t.cfg.max_attempts = 1 then
        (* No retry budget was configured: stay transparent and re-raise
           the task's own exception where [Pool.await] would have. *)
        Printexc.raise_with_backtrace e bt
      else raise (Retries_exhausted { label; attempts = attempt; last = e })
    end
    else begin
      tick t "supervisor.retries";
      let d = next_delay t ~prev_s:prev_delay in
      (match t.metrics with Some m -> Metrics.observe m "supervisor.backoff_s" d | None -> ());
      Obs.Span.instant
        ~args:
          [ ("label", label); ("attempt", string_of_int attempt); ("backoff_s", string_of_float d) ]
        "supervisor.retry";
      t.sleep d;
      let next = attempt + 1 in
      recover t ~label thunk ~attempt:next ~prev_delay:d (exec_once t ~label ~attempt:next thunk)
    end

let run ?(label = "task") t thunk =
  Obs.Span.with_ ~args:[ ("label", label) ] "supervisor.run" @@ fun () ->
  recover t ~label thunk ~attempt:1 ~prev_delay:0. (exec_once t ~label ~attempt:1 thunk)

let run_all ?(label = "batch") t thunks =
  let n = Array.length thunks in
  if n = 0 then [||]
  else
    Obs.Span.with_ ~args:[ ("label", label); ("tasks", string_of_int n) ] "supervisor.run_all"
    @@ fun () ->
    (* First pass: everything in flight at once (when the pool deserves
       it), exactly like [Pool.run_all]. Failures are then retried one
       index at a time — a bad item costs only its own re-execution, not
       its siblings' completed work. *)
    let futures = Array.make n None in
    if healthy t then
      for i = 0 to n - 1 do
        match Pool.submit t.pool thunks.(i) with
        | fut -> futures.(i) <- Some fut
        | exception _ -> () (* picked up serially below *)
      done;
    let results = Array.make n None in
    for i = 0 to n - 1 do
      let lbl = Printf.sprintf "%s[%d]" label i in
      let first =
        match futures.(i) with
        | Some fut -> await_deadline t fut ~label:lbl ~attempt:1
        | None -> (
          tick t "supervisor.serial_fallbacks";
          match thunks.(i) () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      in
      results.(i) <- Some (recover t ~label:lbl thunks.(i) ~attempt:1 ~prev_delay:0. first)
    done;
    Array.map Option.get results
