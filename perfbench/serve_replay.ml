(* Request pools for the two serve workloads, and an in-process replay of
   the daemon's request path built from the serve, logic and runtime
   layers' public calls, timed per layer.

   The replay follows [Serve.Server]'s order for one Eval_request:
   decode -> admit -> parse -> tenant cache lookup -> bit-sliced blocks
   (pooled past 64 vectors) -> scalar tail -> reply assembly -> release
   -> encode. The fidelity test (test/fidelity.ml) pins that its result
   bytes equal a real server session's reply. *)

module Wire = Serve.Wire
module Cache = Runtime.Cache

type request = {
  tenant : string;
  program : string;  (* espresso .pla text *)
  batch : Wire.matrix;
  expected : Wire.matrix;  (* Cnfet.Pla.eval oracle, row per vector *)
  frame : string;  (* the encoded Eval_request frame *)
}

let make_request rng ~tenant ~cover ~vectors =
  let n_in = Logic.Cover.num_inputs cover in
  let n_out = Logic.Cover.num_outputs cover in
  let program =
    Logic.Pla_io.to_string ~on_set:cover ~dc_set:(Logic.Cover.empty ~n_in ~n_out) ()
  in
  let inputs = Array.init vectors (fun _ -> Array.init n_in (fun _ -> Util.Rng.bool rng)) in
  let oracle = Cnfet.Pla.of_cover cover in
  let batch = Wire.matrix_of_vectors inputs in
  let expected = Wire.matrix_of_vectors (Array.map (Cnfet.Pla.eval oracle) inputs) in
  let frame = Wire.encode (Wire.Eval_request { tenant; program; batch }) in
  { tenant; program; batch; expected; frame }

(* serve-hot: every Mcnc.Generators family with <= 16 inputs, once per
   tenant, 1024 vectors each (16 full 63-lane blocks + a 16-vector tail). *)
let hot_tenants = 4
let hot_vectors = 1024

let hot_pool ~seed =
  let rng = Util.Rng.create seed in
  let programs =
    List.filter (fun (_, c) -> Logic.Cover.num_inputs c <= 16) Mcnc.Generators.all
  in
  List.concat_map
    (fun t ->
      List.map
        (fun (_, cover) ->
          make_request rng ~tenant:(Printf.sprintf "hot-%d" t) ~cover ~vectors:hot_vectors)
        programs)
    (List.init hot_tenants Fun.id)
  |> Array.of_list

(* serve-churn: a distinct Mcnc.Synthetic program per request, more of
   them than the daemon's 16 x 32 = 512 cache entries, round-robin over
   32 tenants (twice the tenant slots), 24 vectors each (no full block). *)
let churn_tenants = 32
let churn_vectors = 24
let churn_programs = 544

let churn_pool ~seed =
  let rng = Util.Rng.create seed in
  Array.init churn_programs (fun i ->
      let profile =
        {
          Mcnc.Profiles.name = "churn";
          n_in = 6 + Util.Rng.int rng 5;
          n_out = 1 + Util.Rng.int rng 4;
          n_products = 8 + Util.Rng.int rng 17;
        }
      in
      let cover = (Mcnc.Synthetic.with_profile rng profile).Mcnc.Synthetic.minimized in
      make_request rng ~tenant:(Printf.sprintf "churn-%d" (i mod churn_tenants)) ~cover
        ~vectors:churn_vectors)

(* ------------------------------------------------------------------ *)
(* The daemon's state, built with its default configuration. *)

type state = {
  admission : Serve.Admission.t;
  tenants : Serve.Tenants.t;
  pool : Runtime.Pool.t;
}

let create_state () =
  let cfg = Serve.Server.default_config in
  {
    admission =
      Serve.Admission.create ~queue_limit:cfg.queue_limit ~max_inflight:cfg.max_inflight ();
    tenants = Serve.Tenants.create ~max_tenants:cfg.max_tenants ~quota:cfg.tenant_quota ();
    pool = Runtime.Pool.create ?jobs:cfg.jobs ();
  }

let release_state st = Runtime.Pool.drain st.pool

(* Seconds spent per layer, summed over replayed requests. *)
type layers = {
  mutable decode : float;
  mutable admit : float;  (* admit + release *)
  mutable parse : float;
  mutable lookup : float;  (* Tenants.cache + Cache.compile_hit *)
  mutable eval_block : float;  (* Wire.matrix_block + Cache.eval_block, while any ran *)
  mutable batch_map : float;  (* Batch.map wall while no block was running *)
  mutable eval_tail : float;  (* scalar Cache.eval of the ragged tail *)
  mutable result_build : float;  (* Wire.matrix_init *)
  mutable encode : float;  (* reply frames *)
  mutable wall : float;  (* whole requests *)
  mutable requests : int;
  mutable hits : int;
}

let layers () =
  {
    decode = 0.;
    admit = 0.;
    parse = 0.;
    lookup = 0.;
    eval_block = 0.;
    batch_map = 0.;
    eval_tail = 0.;
    result_build = 0.;
    encode = 0.;
    wall = 0.;
    requests = 0;
    hits = 0;
  }

let covered l =
  l.decode +. l.admit +. l.parse +. l.lookup +. l.eval_block +. l.batch_map +. l.eval_tail
  +. l.result_build +. l.encode

(* [Serve.Server] sends batches of at least this many vectors to the pool. *)
let parallel_threshold = 64

(* The time during which at least one of the [(start, stop)] spans ran:
   their sum when they ran one after another, as on a one-worker pool,
   less when workers overlapped them. *)
let busy_time spans =
  let spans = Array.copy spans in
  Array.sort compare spans;
  let total = ref 0. and reached = ref neg_infinity in
  Array.iter
    (fun (s, e) ->
      let s = Float.max s !reached in
      if e > s then total := !total +. (e -. s);
      reached := Float.max !reached e)
    spans;
  !total

(* Replay one request frame; returns the reply's output matrix. With
   [timed = false] the same calls run with every clock read skipped
   except the two around the whole request, so the two walls differ by
   the timers alone. *)
let replay st acc ~timed frame =
  let tick () = if timed then Unix.gettimeofday () else 0. in
  let start = Unix.gettimeofday () in
  let tenant, program, batch =
    match Wire.decode frame with
    | Ok (Wire.Eval_request { tenant; program; batch }, _) -> (tenant, program, batch)
    | Ok (m, _) -> failwith ("replay: unexpected " ^ Wire.tag_name m)
    | Error e -> failwith ("replay: " ^ Wire.error_to_string e)
  in
  let t_decoded = tick () in
  (match Serve.Admission.admit st.admission with
  | Serve.Admission.Admitted -> ()
  | Serve.Admission.Shed _ -> failwith "replay: shed");
  let t_admitted = tick () in
  let spec = Logic.Pla_io.parse program in
  let n = Wire.matrix_rows batch in
  if n > 0 && Wire.matrix_width batch <> spec.Logic.Pla_io.n_in then
    failwith "replay: arity mismatch";
  let t_parsed = tick () in
  let compiled, hit =
    Cache.compile_hit (Serve.Tenants.cache st.tenants tenant) spec.Logic.Pla_io.on_set
  in
  let t_looked_up = tick () in
  let lanes = Cache.lanes_per_word in
  let n_blocks = n / lanes in
  let n_full = n_blocks * lanes in
  let block_span = Array.make n_blocks (0., 0.) in
  let eval_block b =
    let s = tick () in
    let block = { Cache.words = Wire.matrix_block batch ~first:(b * lanes) ~lanes; lanes } in
    let words = Cache.eval_block compiled block in
    block_span.(b) <- (s, tick ());
    words
  in
  let pooled = n >= parallel_threshold && n_blocks > 0 in
  let block_words =
    if pooled then Runtime.Batch.map st.pool eval_block (Array.init n_blocks Fun.id)
    else Array.init n_blocks eval_block
  in
  let t_blocks = tick () in
  let tail =
    Array.init (n - n_full) (fun i -> Cache.eval compiled (Wire.matrix_row batch (n_full + i)))
  in
  let t_tail = tick () in
  let n_out = Cnfet.Pla.num_outputs (Cache.pla compiled) in
  let outputs =
    Wire.matrix_init ~rows:n ~width:n_out (fun r o ->
        if r < n_full then block_words.(r / lanes).(o) land (1 lsl (r mod lanes)) <> 0
        else tail.(r - n_full).(o))
  in
  let t_built = tick () in
  Serve.Admission.release st.admission;
  let t_released = tick () in
  let chunk = Serve.Server.default_config.chunk_vectors in
  let first = ref 0 in
  while !first < n do
    let len = min chunk (n - !first) in
    let rows = Wire.matrix_sub outputs ~first:!first ~len in
    ignore (Wire.encode (Wire.Result_chunk { first = !first; outputs = rows }) : string);
    first := !first + len
  done;
  let eval_ns = Int64.of_float ((t_built -. t_parsed) *. 1e9) in
  ignore (Wire.encode (Wire.Eval_done { total = n; cache_hit = hit; eval_ns }) : string);
  let t_encoded = tick () in
  let stop = Unix.gettimeofday () in
  acc.wall <- acc.wall +. (stop -. start);
  acc.requests <- acc.requests + 1;
  if hit then acc.hits <- acc.hits + 1;
  if timed then begin
    let blocks = busy_time block_span in
    acc.decode <- acc.decode +. (t_decoded -. start);
    acc.admit <- acc.admit +. (t_admitted -. t_decoded) +. (t_released -. t_built);
    acc.parse <- acc.parse +. (t_parsed -. t_admitted);
    acc.lookup <- acc.lookup +. (t_looked_up -. t_parsed);
    acc.eval_block <- acc.eval_block +. blocks;
    if pooled then acc.batch_map <- acc.batch_map +. (t_blocks -. t_looked_up -. blocks);
    acc.eval_tail <- acc.eval_tail +. (t_tail -. t_blocks);
    acc.result_build <- acc.result_build +. (t_built -. t_tail);
    acc.encode <- acc.encode +. (t_encoded -. t_released)
  end;
  outputs
