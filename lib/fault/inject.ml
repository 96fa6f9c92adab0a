(* Deterministic runtime fault injection.

   The central trick: a decision at a site is a pure function of
   (seed, site tag, index). Each tap hashes the coordinates (FNV-1a),
   feeds the hash to a fresh SplitMix stream and draws from that. No
   shared rng state means no lock on the hot path and no dependence on
   domain scheduling — two runs with the same seed inject exactly the
   same faults even when the pool interleaves differently. *)

exception Injected_fault of { site : string; index : int }

let () =
  Printexc.register_printer (function
    | Injected_fault { site; index } ->
      Some (Printf.sprintf "Fault.Inject.Injected_fault (%s #%d)" site index)
    | _ -> None)

type site =
  | Pool_task of { index : int }
  | Cache_store of { key : string }
  | Crosspoint of { index : int }
  | Pg_charge of { index : int }
  | Weight_cell of { index : int }
  | Read_port of { index : int }
  | Adc_sample of { index : int }

type action =
  | No_fault
  | Raise of exn
  | Crash_worker of exn
  | Stall of float
  | Corrupt

type plan = {
  task_raise : float;
  task_stall : float;
  stall_s : float;
  worker_crash : float;
  cache_corrupt : float;
  crosspoint_flip : float;
  crosspoint_closed_share : float;
  pg_drift : float;
  pg_drift_v : float;
  weight_sigma : float;
  read_noise_lsb : int;
  adc_bits : int;
}

let nothing =
  {
    task_raise = 0.0;
    task_stall = 0.0;
    stall_s = 0.0;
    worker_crash = 0.0;
    cache_corrupt = 0.0;
    crosspoint_flip = 0.0;
    crosspoint_closed_share = 0.25;
    pg_drift = 0.0;
    pg_drift_v = 0.0;
    weight_sigma = 0.0;
    read_noise_lsb = 0;
    adc_bits = 0;
  }

let default =
  {
    task_raise = 0.04;
    task_stall = 0.04;
    stall_s = 0.002;
    worker_crash = 0.03;
    cache_corrupt = 0.4;
    (* Device-fault rates must sit in the regime the spare budget can
       absorb (paper §5 argues ~1e-2): much higher and every map is
       honestly unrepairable, which exercises nothing. *)
    crosspoint_flip = 0.015;
    crosspoint_closed_share = 0.25;
    pg_drift = 0.08;
    pg_drift_v = 1.2;
    (* The analog classification knobs stay off in the default chaos
       plan: they only shape Classify evaluation, which arms its own
       engines with explicit sigma/LSB/ADC settings per grid point. *)
    weight_sigma = 0.0;
    read_noise_lsb = 0;
    adc_bits = 0;
  }

let categories =
  [
    "adc_clamp";
    "cache_corrupt";
    "crosspoint_flip";
    "pg_drift";
    "read_noise";
    "task_raise";
    "task_stall";
    "weight_perturb";
    "worker_crash";
  ]

type t = {
  seed : int;
  plan : plan;
  tallies : (string * int Atomic.t) list;  (* category -> injected count *)
}

let engine : t option Atomic.t = Atomic.make None

let check_probability name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Inject.arm: %s = %g not a probability" name p)

let check_nonneg name x =
  if not (x >= 0.0) then
    invalid_arg (Printf.sprintf "Inject.arm: %s = %g negative (or NaN)" name x)

let check_nonneg_int name x =
  if x < 0 then invalid_arg (Printf.sprintf "Inject.arm: %s = %d negative" name x)

let make ~seed plan =
  check_probability "task_raise" plan.task_raise;
  check_probability "task_stall" plan.task_stall;
  check_probability "worker_crash" plan.worker_crash;
  check_probability "cache_corrupt" plan.cache_corrupt;
  check_probability "crosspoint_flip" plan.crosspoint_flip;
  check_probability "crosspoint_closed_share" plan.crosspoint_closed_share;
  check_probability "pg_drift" plan.pg_drift;
  check_nonneg "weight_sigma" plan.weight_sigma;
  check_nonneg_int "read_noise_lsb" plan.read_noise_lsb;
  check_nonneg_int "adc_bits" plan.adc_bits;
  { seed; plan; tallies = List.map (fun c -> (c, Atomic.make 0)) categories }

let arm ~seed plan =
  let t = make ~seed plan in
  if not (Atomic.compare_and_set engine None (Some t)) then
    invalid_arg "Inject.arm: an engine is already armed";
  t

let disarm () = Atomic.set engine None

let armed () = Atomic.get engine <> None

let with_armed ~seed plan f =
  let t = arm ~seed plan in
  Fun.protect ~finally:disarm (fun () -> f t)

let counts t = List.map (fun (c, a) -> (c, Atomic.get a)) t.tallies

let total t = List.fold_left (fun n (_, a) -> n + Atomic.get a) 0 t.tallies

let tally t category = Atomic.incr (List.assoc category t.tallies)

(* --- decision streams --------------------------------------------------- *)

(* A short private stream per decision, keyed by the FNV-1a hash of
   "<seed>/<tag>#<index>"; draw order within a site is fixed by the code
   below, so every decision is reproducible in isolation. *)
let stream t tag index_str =
  let k = Util.Rng.key () in
  Util.Rng.key_string k (string_of_int t.seed);
  Util.Rng.key_string k "/";
  Util.Rng.key_string k tag;
  Util.Rng.key_string k "#";
  Util.Rng.key_string k index_str;
  Util.Rng.of_key k

let site_tag = function
  | Pool_task _ -> "pool_task"
  | Cache_store _ -> "cache_store"
  | Crosspoint _ -> "crosspoint"
  | Pg_charge _ -> "pg_charge"
  | Weight_cell _ -> "weight_cell"
  | Read_port _ -> "read_port"
  | Adc_sample _ -> "adc_sample"

let site_index_str = function
  | Pool_task { index }
  | Crosspoint { index }
  | Pg_charge { index }
  | Weight_cell { index }
  | Read_port { index }
  | Adc_sample { index } -> string_of_int index
  | Cache_store { key } -> Digest.to_hex (Digest.string key)

(* Approximately standard normal: Irwin–Hall sum of 12 uniforms minus 6,
   the same shape Pla_timing uses. Bounded in ±6, which suits a device
   model better than a true unbounded gaussian. *)
let gauss rng =
  let s = ref 0.0 in
  for _ = 1 to 12 do
    s := !s +. Util.Rng.float rng 1.0
  done;
  !s -. 6.0

(* Raw (tally-free) draws shared by [tap] and the derived helpers. *)
let raw_weight_factor t index =
  if t.plan.weight_sigma = 0.0 then 1.0
  else 1.0 +. (t.plan.weight_sigma *. gauss (stream t "weight_cell" (string_of_int index)))

let raw_read_offset t index =
  let lsb = t.plan.read_noise_lsb in
  if lsb = 0 then 0
  else Util.Rng.int (stream t "read_port" (string_of_int index)) ((2 * lsb) + 1) - lsb

let tap site =
  match Atomic.get engine with
  | None -> No_fault
  | Some t -> (
    let tag = site_tag site and idx = site_index_str site in
    let rng = stream t tag idx in
    let decide category action =
      tally t category;
      action
    in
    match site with
    | Pool_task { index } ->
      (* Draw order: crash, raise, stall — one decision wins. *)
      if Util.Rng.bernoulli rng t.plan.worker_crash then
        decide "worker_crash" (Crash_worker (Injected_fault { site = "worker_crash"; index }))
      else if Util.Rng.bernoulli rng t.plan.task_raise then
        decide "task_raise" (Raise (Injected_fault { site = "task_raise"; index }))
      else if Util.Rng.bernoulli rng t.plan.task_stall then
        decide "task_stall" (Stall t.plan.stall_s)
      else No_fault
    | Cache_store _ ->
      if Util.Rng.bernoulli rng t.plan.cache_corrupt then decide "cache_corrupt" Corrupt
      else No_fault
    | Crosspoint _ ->
      if Util.Rng.bernoulli rng t.plan.crosspoint_flip then decide "crosspoint_flip" Corrupt
      else No_fault
    | Pg_charge _ ->
      if Util.Rng.bernoulli rng t.plan.pg_drift then decide "pg_drift" Corrupt else No_fault
    | Weight_cell { index } ->
      if raw_weight_factor t index <> 1.0 then decide "weight_perturb" Corrupt else No_fault
    | Read_port { index } ->
      if raw_read_offset t index <> 0 then decide "read_noise" Corrupt else No_fault
    | Adc_sample _ ->
      (* Clamping is value-dependent, not stochastic: a non-zero ADC
         width means every sample at this site is subject to it. *)
      if t.plan.adc_bits > 0 then decide "adc_clamp" Corrupt else No_fault)

(* The cell's first draw is the uniform the rate is compared against,
   its second the stuck kind; both are fixed per (seed, index). *)
let crosspoint_draw_of t ~index =
  let rng = stream t "crosspoint" (string_of_int index) in
  let u = Util.Rng.float rng 1.0 in
  let kind =
    if Util.Rng.bernoulli rng t.plan.crosspoint_closed_share then Defect.Stuck_closed
    else Defect.Stuck_open
  in
  (u, kind)

let crosspoint_fault_of t ~index =
  let u, kind = crosspoint_draw_of t ~index in
  if u < t.plan.crosspoint_flip then begin
    tally t "crosspoint_flip";
    kind
  end
  else Defect.Good

let crosspoint_fault ~index =
  match Atomic.get engine with
  | None -> Defect.Good
  | Some t -> crosspoint_fault_of t ~index

let pg_drift ~index =
  match Atomic.get engine with
  | None -> 0.0
  | Some t ->
    let rng = stream t "pg_charge" (string_of_int index) in
    if Util.Rng.bernoulli rng t.plan.pg_drift then begin
      tally t "pg_drift";
      if Util.Rng.bool rng then t.plan.pg_drift_v else -.t.plan.pg_drift_v
    end
    else 0.0

(* --- classification non-idealities --------------------------------------- *)

let weight_factor_of t ~index =
  let f = raw_weight_factor t index in
  if f <> 1.0 then tally t "weight_perturb";
  f

let weight_factor ~index =
  match Atomic.get engine with None -> 1.0 | Some t -> weight_factor_of t ~index

let read_offset_of t ~index =
  let off = raw_read_offset t index in
  if off <> 0 then tally t "read_noise";
  off

let read_offset ~index =
  match Atomic.get engine with None -> 0 | Some t -> read_offset_of t ~index

let adc_clamp_of t v =
  if t.plan.adc_bits = 0 then v
  else begin
    let lo = -(1 lsl (t.plan.adc_bits - 1)) in
    let hi = (1 lsl (t.plan.adc_bits - 1)) - 1 in
    if v < lo then begin
      tally t "adc_clamp";
      lo
    end
    else if v > hi then begin
      tally t "adc_clamp";
      hi
    end
    else v
  end

let adc_clamp v = match Atomic.get engine with None -> v | Some t -> adc_clamp_of t v
