module Metrics = Runtime.Metrics
module Cache = Runtime.Cache

type config = {
  jobs : int option;
  queue_limit : int;
  max_inflight : int;
  max_tenants : int;
  tenant_quota : int;
  max_frame : int;
  chunk_vectors : int;
  max_batch : int;
}

let default_config =
  {
    jobs = None;
    queue_limit = 64;
    max_inflight = 8;
    max_tenants = 16;
    tenant_quota = 32;
    max_frame = 4 * 1024 * 1024;
    chunk_vectors = 512;
    max_batch = 65536;
  }

type stats = {
  sessions_active : int;
  sessions_total : int;
  requests : int;
  responses_ok : int;
  request_errors : int;
  session_errors : int;
  vectors_evaluated : int;
  fallback_evals : int;
}

type t = {
  cfg : config;
  metrics : Metrics.t option;
  pool : Runtime.Pool.t;
  admission : Admission.t;
  tenants : Tenants.t;
  lock : Mutex.t;
  mutable st : stats;
  stop_flag : bool Atomic.t;
  mutable sock_path : string option;  (* set while [run_unix] is live *)
}

let create ?metrics cfg =
  (* A client that hangs up mid-stream must surface as EPIPE on write
     (handled per-session), not as a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if cfg.chunk_vectors < 1 then invalid_arg "Server.create: chunk_vectors < 1";
  if cfg.max_batch < 1 then invalid_arg "Server.create: max_batch < 1";
  if cfg.max_frame < Wire.header_bytes then invalid_arg "Server.create: max_frame too small";
  let pool = Runtime.Pool.create ?metrics ?jobs:cfg.jobs () in
  let admission = Admission.create ?metrics ~queue_limit:cfg.queue_limit ~max_inflight:cfg.max_inflight () in
  let tenants = Tenants.create ?metrics ~max_tenants:cfg.max_tenants ~quota:cfg.tenant_quota () in
  {
    cfg;
    metrics;
    pool;
    admission;
    tenants;
    lock = Mutex.create ();
    st =
      {
        sessions_active = 0;
        sessions_total = 0;
        requests = 0;
        responses_ok = 0;
        request_errors = 0;
        session_errors = 0;
        vectors_evaluated = 0;
        fallback_evals = 0;
      };
    stop_flag = Atomic.make false;
    sock_path = None;
  }

let config t = t.cfg
let admission t = t.admission
let tenants t = t.tenants
let pool t = t.pool

let stats t =
  Mutex.lock t.lock;
  let s = t.st in
  Mutex.unlock t.lock;
  s

let bump t f =
  Mutex.lock t.lock;
  t.st <- f t.st;
  Mutex.unlock t.lock

let tick t name = match t.metrics with Some m -> Metrics.incr_named m name | None -> ()

let observe t name v = match t.metrics with Some m -> Metrics.observe m name v | None -> ()

(* ------------------------------------------------------------------ *)
(* Request pipeline: admit -> parse -> compile -> eval.               *)

exception Reject of Wire.error_code * string
(* request-level failure; answered with [Error_response], session lives *)

(* Front keys: a tag byte puts eval programs and classify model names in
   disjoint namespaces, so no program text can alias a model. *)
let program_source program = "P" ^ program

let model_source model = "M" ^ model

(* The classifier registry: model name -> lowered crossbar. Lowering
   (minterm enumeration + espresso) is paid once per process on first
   classify request, then every request compiles the mapped cover
   through the same per-tenant cache as eval programs. *)
let classify_models =
  lazy [ ("default", Classify.Map.lower Classify.Pretrained.model) ]

let lookup_model name =
  match List.assoc_opt name (Lazy.force classify_models) with
  | Some mapped -> mapped
  | None -> raise (Reject (Wire.Parse_failed, Printf.sprintf "unknown model %S" name))

let parse_program program =
  match Logic.Pla_io.parse program with
  | spec -> spec
  | exception Logic.Pla_io.Parse_error (line, msg) ->
    raise (Reject (Wire.Parse_failed, Printf.sprintf "line %d: %s" line msg))
  | exception e -> raise (Reject (Wire.Parse_failed, Printexc.to_string e))

type reply =
  | Stream of { outputs : Wire.matrix; cache_hit : bool; eval_ns : int64 }
  | One of Wire.message

(* The batch is cut into [ceil (n / 63)] blocks, the last one partial
   ([Runtime.Batch.map_blocks], which uses the pool when there is more
   than one block). Each block gathers straight from the request
   matrix's packed bytes ([Wire.matrix_block]) into the bit-sliced
   evaluator — no bool-array round-trip — and [Wire.matrix_of_blocks]
   scatters the output lane words into the reply's row bytes. *)
let eval_blocks t compiled batch =
  let n = Wire.matrix_rows batch in
  let block_words =
    Runtime.Batch.map_blocks ?metrics:t.metrics t.pool n (fun ~first ~lanes ->
        Cache.eval_block compiled { Cache.words = Wire.matrix_block batch ~first ~lanes; lanes })
  in
  Wire.matrix_of_blocks ~rows:n ~width:(Cnfet.Pla.num_outputs (Cache.pla compiled)) block_words

(* Shared request wrapper: count, admit (or shed), cap the batch, and
   convert any per-request explosion to a typed error — the daemon and
   other sessions keep going. [f] gets the admitted batch size and runs
   the request-specific parse/compile/eval. *)
let admitted t ~batch f =
  bump t (fun s -> { s with requests = s.requests + 1 });
  tick t "serve.requests";
  match Obs.Span.with_ "serve.admit" (fun () -> Admission.admit t.admission) with
  | Admission.Shed { queued; inflight } -> One (Wire.Overloaded { queued; inflight })
  | Admission.Admitted -> (
    match
      Fun.protect
        ~finally:(fun () -> Admission.release t.admission)
        (fun () ->
          let n = Wire.matrix_rows batch in
          if n > t.cfg.max_batch then
            raise
              (Reject
                 ( Wire.Batch_too_large,
                   Printf.sprintf "%d vectors exceed the per-request cap of %d" n t.cfg.max_batch ));
          f n)
    with
    | reply -> reply
    | exception Reject (code, message) -> One (Wire.Error_response { code; message })
    | exception e ->
      tick t "serve.request_crashes";
      One (Wire.Error_response { code = Wire.Internal; message = Printexc.to_string e }))

let check_width ~n batch expected what =
  if n > 0 && Wire.matrix_width batch <> expected then
    raise
      (Reject
         ( Wire.Arity_mismatch,
           Printf.sprintf "batch width %d, %s" (Wire.matrix_width batch) (what expected) ))

(* Look the program up through [Cache.resolve], keyed on [source]. A
   front hit skips [miss] (parse, checks, cover hash), so [on_hit]
   checks the batch against a hit entry instead. Otherwise [miss]
   builds the cover and the cache takes it through its one rot policy:
   a store that rots leaves a standalone compiled entry, counted as a
   fallback. Then evaluate the batch through the bit-sliced path.
   [eval_ns] times lookup and evaluation only: [miss]'s own time, the
   parse, is left out. *)
let compile_and_eval t ~tenant ~batch ~n ~source ~on_hit miss =
  let t0 = Unix.gettimeofday () in
  let miss_s = ref 0. in
  let compiled, status =
    Obs.Span.with_ ~args:[ ("tenant", tenant) ] "serve.compile" (fun () ->
        let tcache = Tenants.cache t.tenants tenant in
        Cache.resolve tcache ~source (fun () ->
            let m0 = Unix.gettimeofday () in
            let cover = miss () in
            miss_s := Unix.gettimeofday () -. m0;
            cover))
  in
  (match status with
  | `Hit -> on_hit compiled
  | `Miss -> ()
  | `Fallback ->
    bump t (fun s -> { s with fallback_evals = s.fallback_evals + 1 });
    tick t "serve.fallback_evals");
  let outputs =
    Obs.Span.with_ ~args:[ ("vectors", string_of_int n) ] "serve.eval" (fun () ->
        eval_blocks t compiled batch)
  in
  let dt = Unix.gettimeofday () -. t0 -. !miss_s in
  observe t "serve.eval_latency_s" dt;
  bump t (fun s -> { s with vectors_evaluated = s.vectors_evaluated + n });
  (match t.metrics with Some m -> Metrics.incr_named ~by:n m "serve.vectors" | None -> ());
  Stream { outputs; cache_hit = status = `Hit; eval_ns = Int64.of_float (dt *. 1e9) }

let process t ~tenant ~program ~batch =
  admitted t ~batch (fun n ->
      let check_inputs n_in =
        check_width ~n batch n_in (Printf.sprintf "program has %d inputs")
      in
      compile_and_eval t ~tenant ~batch ~n ~source:(program_source program)
        ~on_hit:(fun compiled -> check_inputs (Cnfet.Pla.num_inputs (Cache.pla compiled)))
        (fun () ->
          let spec = parse_program program in
          check_inputs spec.Logic.Pla_io.n_in;
          spec.Logic.Pla_io.on_set))

let process_classify t ~tenant ~model ~batch =
  admitted t ~batch (fun n ->
      let mapped = lookup_model model in
      check_width ~n batch mapped.Classify.Map.model.Classify.Model.n_features
        (Printf.sprintf "model has %d features");
      compile_and_eval t ~tenant ~batch ~n ~source:(model_source model) ~on_hit:ignore
        (fun () -> mapped.Classify.Map.cover))

(* ------------------------------------------------------------------ *)
(* Sessions.                                                          *)

let write_reply t oc = function
  | One msg ->
    (match msg with
    | Wire.Error_response _ -> bump t (fun s -> { s with request_errors = s.request_errors + 1 })
    | _ -> ());
    Obs.Span.with_ "serve.encode" (fun () -> Wire.write_message oc msg)
  | Stream { outputs; cache_hit; eval_ns } ->
    Obs.Span.with_ "serve.encode" (fun () ->
        let n = Wire.matrix_rows outputs in
        let chunk = t.cfg.chunk_vectors in
        let first = ref 0 in
        while !first < n do
          let len = min chunk (n - !first) in
          Wire.write_message oc
            (Wire.Result_chunk
               { first = !first; outputs = Wire.matrix_sub outputs ~first:!first ~len });
          first := !first + len
        done;
        Wire.write_message oc (Wire.Eval_done { total = n; cache_hit; eval_ns }));
    bump t (fun s -> { s with responses_ok = s.responses_ok + 1 })

(* [serve.read] is the wait for a whole frame, client idle included;
   [serve.parse] is the decoding work alone. *)
let read_request t ic =
  match Obs.Span.with_ "serve.read" (fun () -> Wire.read_frame ~limit:t.cfg.max_frame ic) with
  | `Frame payload -> (
    match Obs.Span.with_ "serve.parse" (fun () -> Wire.decode_payload payload) with
    | Ok msg -> `Msg msg
    | Error e -> `Error e)
  | (`Eof | `Error _) as r -> r

let serve_session t ic oc =
  bump t (fun s ->
      { s with sessions_active = s.sessions_active + 1; sessions_total = s.sessions_total + 1 });
  tick t "serve.sessions";
  let outcome =
    try
      Obs.Span.with_ "serve.session" (fun () ->
          let rec loop () =
            match read_request t ic with
            | `Eof -> `Clean
            | `Error e ->
              (* framing is lost; tell the client why, then hang up *)
              tick t "serve.decode_errors";
              (try
                 Wire.write_message oc
                   (Wire.Error_response
                      { code = Wire.Internal; message = "decode: " ^ Wire.error_to_string e })
               with _ -> ());
              `Decode_error
            | `Msg Wire.Ping ->
              Wire.write_message oc Wire.Pong;
              loop ()
            | `Msg (Wire.Eval_request { tenant; program; batch }) ->
              write_reply t oc (process t ~tenant ~program ~batch);
              loop ()
            | `Msg (Wire.Classify_request { tenant; model; batch }) ->
              write_reply t oc (process_classify t ~tenant ~model ~batch);
              loop ()
            | `Msg other ->
              bump t (fun s -> { s with request_errors = s.request_errors + 1 });
              Wire.write_message oc
                (Wire.Error_response
                   {
                     code = Wire.Internal;
                     message = "unexpected client message: " ^ Wire.tag_name other;
                   });
              loop ()
          in
          loop ())
    with _ ->
      (* disconnect mid-stream (EPIPE surfaces as Sys_error) or any other
         session-fatal surprise: this session only *)
      `Disconnected
  in
  (match outcome with
  | `Clean -> ()
  | `Decode_error | `Disconnected ->
    bump t (fun s -> { s with session_errors = s.session_errors + 1 });
    tick t "serve.session_errors");
  bump t (fun s -> { s with sessions_active = s.sessions_active - 1 })

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                         *)

let stop t =
  Atomic.set t.stop_flag true;
  Admission.close t.admission;
  Runtime.Pool.drain t.pool

let request_stop t =
  (* Runs from SIGINT/SIGTERM handlers, which OCaml executes at a safe
     point in an {e arbitrary} thread — possibly one already holding
     the admission lock, so taking any mutex here (Admission.close)
     could self-deadlock. Only flip the atomic flag and poke the
     listener; [stop], which the caller runs once the accept loop
     returns, closes admission and drains the pool. *)
  Atomic.set t.stop_flag true;
  (* wake a blocked [accept] by connecting to ourselves; harmless if the
     listener is already gone *)
  match t.sock_path with
  | None -> ()
  | Some path -> (
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path) with _ -> ());
      Unix.close fd
    with _ -> ())

let session_thread t fd =
  (* Separate descriptors per direction so the two channels can be
     closed independently (closing a shared fd twice races with fd
     reuse in other threads). *)
  let out_fd = Unix.dup fd in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr out_fd in
  serve_session t ic oc;
  close_out_noerr oc;
  close_in_noerr ic

let run_unix t ~sock_path =
  (try Unix.unlink sock_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX sock_path);
  Unix.listen listener 64;
  t.sock_path <- Some sock_path;
  Fun.protect
    ~finally:(fun () ->
      t.sock_path <- None;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (try Unix.unlink sock_path with Unix.Unix_error _ -> ()))
    (fun () ->
      let rec accept_loop () =
        if Atomic.get t.stop_flag then ()
        else
          match Unix.accept listener with
          | fd, _ ->
            if Atomic.get t.stop_flag then (try Unix.close fd with Unix.Unix_error _ -> ())
            else ignore (Thread.create (fun () -> session_thread t fd) () : Thread.t);
            accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
            (* listener closed under us during shutdown *)
            ()
          | exception e -> if Atomic.get t.stop_flag then () else raise e
      in
      accept_loop ())
