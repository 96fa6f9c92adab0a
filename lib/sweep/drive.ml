type space = { inputs : int list; outputs : int list; products : int list }

type config = {
  profiles : int;
  seed : int;
  jobs : int;
  window : int;
  space : space;
  yield_trials : int;
  defect_rate : float;
  spare_rows : int;
  clb_inputs : int;
  checkpoint : string option;
}

let default_space =
  { inputs = [ 5; 6; 7; 8; 9; 10 ]; outputs = [ 1; 2; 4; 8 ]; products = [ 8; 16; 24; 32 ] }

let quick_space = { inputs = [ 5; 6 ]; outputs = [ 1; 2 ]; products = [ 6; 10 ] }
let tiny_space = { inputs = [ 4; 5 ]; outputs = [ 1; 2 ]; products = [ 3; 5 ] }

let default =
  {
    profiles = 1024;
    seed = 2008;
    jobs = Runtime.Pool.default_jobs ();
    window = 0;
    space = default_space;
    yield_trials = 16;
    defect_rate = 0.02;
    spare_rows = 2;
    clb_inputs = 4;
    checkpoint = None;
  }

let quick = { default with profiles = 8; space = quick_space; yield_trials = 8; jobs = 2 }

type item = {
  it_index : int;
  it_name : string;
  it_n_in : int;
  it_n_out : int;
  it_target_products : int;
  it_achieved_products : int;
  it_products : int;
  it_area : int;
  it_blocks : int;
  it_grid : int;
  it_frequency_hz : float;
  it_yield : float;
  it_stage_s : (string * float) list;
}

type failure = Shard.failure = {
  fl_index : int;
  fl_name : string;
  fl_stage : string;
  fl_error : string;
}

type result = {
  r_profiles : int;
  r_seed : int;
  r_jobs : int;
  r_space : space;
  r_items : item list;
  r_failures : failure list;
  r_resumed : int;
  r_wall_s : float;
}

(* ------------------------------------------------------------------ *)
(* Profile grid *)

let profile_for space index =
  let ni = List.length space.inputs
  and no = List.length space.outputs
  and np = List.length space.products in
  if ni = 0 || no = 0 || np = 0 then invalid_arg "Sweep.Drive.profile_for: empty space";
  let cell = index mod (ni * no * np) in
  let n_in = List.nth space.inputs (cell / (no * np)) in
  let n_out = List.nth space.outputs (cell / np mod no) in
  let n_products = List.nth space.products (cell mod np) in
  {
    Mcnc.Profiles.name = Printf.sprintf "syn-%dx%dx%d" n_in n_out n_products;
    n_in;
    n_out;
    n_products;
  }

let name_for space index =
  let p = profile_for space index in
  Printf.sprintf "p%05d-%dx%dx%d" index p.Mcnc.Profiles.n_in p.n_out p.n_products

(* ------------------------------------------------------------------ *)
(* Deterministic per-item streams *)

(* A keyed stream (FNV-1a over the little-endian bytes of each word):
   the key is a pure function of (seed, salt, index), so nothing about
   scheduling, job count or resume order can reach it. *)
let item_rng ~seed ~salt index =
  let key = Util.Rng.key () in
  List.iter (fun w -> Util.Rng.key_int64 key (Int64.of_int w)) [ seed; salt; index ];
  Util.Rng.of_key key

(* ------------------------------------------------------------------ *)
(* The per-item staged flow *)

(* Smallest CNFET grid that keeps CLB occupancy at or under 80% — the
   headroom placement needs to anneal rather than tile. *)
let grid_for blocks =
  let rec fit g =
    if Fpga.Arch.sites (Fpga.Arch.cnfet ~grid:g) * 4 >= blocks * 5 then g else fit (g + 1)
  in
  fit 3

let item_pipeline config ~index =
  let profile = profile_for config.space index in
  let name = name_for config.space index in
  let gen_rng = item_rng ~seed:config.seed ~salt:0 index in
  let flow_rng = item_rng ~seed:config.seed ~salt:1 index in
  let yield_rng = item_rng ~seed:config.seed ~salt:2 index in
  let open Stage in
  stage "sweep.generate" (fun () ->
      let syn = Mcnc.Synthetic.with_profile gen_rng profile in
      (syn.Mcnc.Synthetic.minimized, syn.achieved_products))
  >>> stage "sweep.phase" (fun (minimized, achieved) ->
          let ph = Espresso.Phase.optimize ~max_rounds:1 minimized in
          (minimized, achieved, ph.Espresso.Phase.cover))
  >>> stage "sweep.fold" (fun (minimized, achieved, phased) ->
          let pla = Cnfet.Pla.of_minimized phased in
          let area = Cnfet.Folding.folded_pla_area Device.Tech.cnfet pla in
          (minimized, (achieved, Logic.Cover.size phased, pla, area)))
  >>> stage "sweep.map" (fun (minimized, carry) ->
          let mapped = Fpga.Map.map_cover ~clb_inputs:config.clb_inputs minimized in
          let design = Fpga.Design.absorb_inverters (Fpga.Map.to_design mapped) in
          (design, carry))
  >>> dyn "sweep.pnr" (fun (design, _carry) ->
          let grid = grid_for (Fpga.Design.block_count design) in
          let arch = Fpga.Arch.cnfet ~grid in
          first (Fpga.Flow.staged flow_rng arch)
          >>> pure (fun (attempt, carry) -> (attempt, grid, carry)))
  >>> stage "sweep.yield" (fun (attempt, grid, (achieved, products, pla, area)) ->
          let outcome = attempt.Fpga.Flow.a_outcome in
          let point =
            Fault.Yield.estimate yield_rng ~trials:config.yield_trials
              ~spare_rows:config.spare_rows pla ~defect_rate:config.defect_rate
          in
          {
            it_index = index;
            it_name = name;
            it_n_in = profile.Mcnc.Profiles.n_in;
            it_n_out = profile.n_out;
            it_target_products = profile.n_products;
            it_achieved_products = achieved;
            it_products = products;
            it_area = area;
            it_blocks = outcome.Fpga.Flow.blocks_used;
            it_grid = grid;
            it_frequency_hz = outcome.timing.Fpga.Timing.frequency_hz;
            it_yield = point.Fault.Yield.yield_spares;
            it_stage_s = [];
          })

(* ------------------------------------------------------------------ *)
(* Item JSON (shared by checkpoints and reports) *)

let item_json it =
  let num x = Assess.Json.Number x in
  let int x = num (float_of_int x) in
  Assess.Json.Obj
    [
      ("index", int it.it_index);
      ("name", Assess.Json.String it.it_name);
      ("n_in", int it.it_n_in);
      ("n_out", int it.it_n_out);
      ("target_products", int it.it_target_products);
      ("achieved_products", int it.it_achieved_products);
      ("products", int it.it_products);
      ("area", int it.it_area);
      ("blocks", int it.it_blocks);
      ("grid", int it.it_grid);
      ("frequency_hz", num it.it_frequency_hz);
      ("yield", num it.it_yield);
      ("stage_s", Assess.Json.Obj (List.map (fun (k, v) -> (k, num v)) it.it_stage_s));
    ]

let item_of_json j =
  let open Assess.Json in
  let ( let* ) o f = Option.bind o f in
  let* it_index = Option.bind (member "index" j) to_int in
  let* it_name = Option.bind (member "name" j) to_str in
  let* it_n_in = Option.bind (member "n_in" j) to_int in
  let* it_n_out = Option.bind (member "n_out" j) to_int in
  let* it_target_products = Option.bind (member "target_products" j) to_int in
  let* it_achieved_products = Option.bind (member "achieved_products" j) to_int in
  let* it_products = Option.bind (member "products" j) to_int in
  let* it_area = Option.bind (member "area" j) to_int in
  let* it_blocks = Option.bind (member "blocks" j) to_int in
  let* it_grid = Option.bind (member "grid" j) to_int in
  let* it_frequency_hz = Option.bind (member "frequency_hz" j) to_float in
  let* it_yield = Option.bind (member "yield" j) to_float in
  let* it_stage_s =
    match member "stage_s" j with
    | Some (Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            let* v = to_float v in
            Some ((k, v) :: acc))
          (Some []) kvs
        |> Option.map List.rev
    | _ -> None
  in
  Some
    {
      it_index;
      it_name;
      it_n_in;
      it_n_out;
      it_target_products;
      it_achieved_products;
      it_products;
      it_area;
      it_blocks;
      it_grid;
      it_frequency_hz;
      it_yield;
      it_stage_s;
    }

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

(* The header pins every knob that shapes item results. [jobs], [window]
   and [profiles] are deliberately absent: they change scheduling and
   population size, never the value any index computes, so a resume may
   widen the pool or extend the sweep. *)
let checkpoint_meta config =
  let int x = Assess.Json.Number (float_of_int x) in
  Assess.Json.Obj
    [
      ("sweep_checkpoint", int 1);
      ("seed", int config.seed);
      ("inputs", Assess.Json.List (List.map (fun x -> int x) config.space.inputs));
      ("outputs", Assess.Json.List (List.map (fun x -> int x) config.space.outputs));
      ("products", Assess.Json.List (List.map (fun x -> int x) config.space.products));
      ("yield_trials", int config.yield_trials);
      ("defect_rate", Assess.Json.Number config.defect_rate);
      ("spare_rows", int config.spare_rows);
      ("clb_inputs", int config.clb_inputs);
    ]

(* ------------------------------------------------------------------ *)
(* The sharded driver — the generic machinery lives in {!Shard}; this
   binds it to the silicon-sweep item type and staged pipeline. *)

let run ?metrics ?(pipeline = item_pipeline) config =
  if config.profiles < 0 then invalid_arg "Sweep.Drive.run: negative profile count";
  let t0 = Unix.gettimeofday () in
  let task i =
    let durs = ref [] in
    let observe ~stage ~dur_s = durs := (stage, dur_s) :: !durs in
    match Stage.exec ?metrics ~observe (pipeline config ~index:i) () with
    | Ok it -> Ok { it with it_stage_s = List.rev !durs }
    | Error f ->
        Error
          {
            fl_index = i;
            fl_name = name_for config.space i;
            fl_stage = f.Stage.stage;
            fl_error = f.error;
          }
  in
  let outcome =
    Shard.run ?metrics
      {
        Shard.total = config.profiles;
        jobs = config.jobs;
        window = config.window;
        checkpoint = config.checkpoint;
        meta = checkpoint_meta config;
        item_json;
        item_of_json;
        index_of_item = (fun it -> it.it_index);
        name_of_index = name_for config.space;
        task;
      }
  in
  let items = ref [] and failures = ref [] in
  for i = config.profiles - 1 downto 0 do
    match outcome.Shard.sh_results.(i) with
    | Some (Ok it) -> items := it :: !items
    | Some (Error f) -> failures := f :: !failures
    | None -> assert false
  done;
  {
    r_profiles = config.profiles;
    r_seed = config.seed;
    r_jobs = config.jobs;
    r_space = config.space;
    r_items = !items;
    r_failures = !failures;
    r_resumed = outcome.Shard.sh_resumed;
    r_wall_s = Unix.gettimeofday () -. t0;
  }
