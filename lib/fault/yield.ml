type point = {
  defect_rate : float;
  yield_baseline : float;
  yield_remap : float;
  yield_spares : float;
  trials : int;
}

let draw_maps rng ?closed_share pla ~spare_rows ~defect_rate =
  let n_products = Cnfet.Pla.num_products pla in
  let n_rows = n_products + spare_rows in
  let n_in = Cnfet.Plane.cols (Cnfet.Pla.and_plane pla) in
  let n_out = Cnfet.Plane.rows (Cnfet.Pla.or_plane pla) in
  let and_defects =
    Defect.random rng ~rows:n_rows ~cols:n_in ~rate:defect_rate ?closed_share ()
  in
  let or_defects =
    Defect.random rng ~rows:n_out ~cols:n_rows ~rate:defect_rate ?closed_share ()
  in
  (and_defects, or_defects)

(* Restrict a defect map pair to the first n_products rows/columns for the
   no-spare scenarios. *)
let truncate_maps (and_defects, or_defects) n_products =
  let a = Defect.perfect ~rows:n_products ~cols:(Defect.cols and_defects) in
  for r = 0 to n_products - 1 do
    for c = 0 to Defect.cols and_defects - 1 do
      Defect.set a ~row:r ~col:c (Defect.kind and_defects ~row:r ~col:c)
    done
  done;
  let o = Defect.perfect ~rows:(Defect.rows or_defects) ~cols:n_products in
  for r = 0 to Defect.rows or_defects - 1 do
    for c = 0 to n_products - 1 do
      Defect.set o ~row:r ~col:c (Defect.kind or_defects ~row:r ~col:c)
    done
  done;
  (a, o)

type trial_outcome = { ok_baseline : bool; ok_remap : bool; ok_spares : bool }

let trial rng ?(spare_rows = 2) ?closed_share pla ~defect_rate =
  let n_products = Cnfet.Pla.num_products pla in
  let maps = draw_maps rng ?closed_share pla ~spare_rows ~defect_rate in
  let and_trunc, or_trunc = truncate_maps maps n_products in
  let ok_baseline = Repair.identity_works ~and_defects:and_trunc ~or_defects:or_trunc pla in
  let ok_remap =
    match Repair.repair ~spare_rows:0 ~and_defects:and_trunc ~or_defects:or_trunc pla with
    | Repair.Repaired _ -> true
    | Repair.Unrepairable -> false
  in
  let and_full, or_full = maps in
  let ok_spares =
    match Repair.repair ~spare_rows ~and_defects:and_full ~or_defects:or_full pla with
    | Repair.Repaired _ -> true
    | Repair.Unrepairable -> false
  in
  { ok_baseline; ok_remap; ok_spares }

let point_of_outcomes ~defect_rate outcomes =
  let trials = Array.length outcomes in
  let count f = Array.fold_left (fun n o -> if f o then n + 1 else n) 0 outcomes in
  let frac n = if trials = 0 then 0.0 else float_of_int n /. float_of_int trials in
  {
    defect_rate;
    yield_baseline = frac (count (fun o -> o.ok_baseline));
    yield_remap = frac (count (fun o -> o.ok_remap));
    yield_spares = frac (count (fun o -> o.ok_spares));
    trials;
  }

(* The generic sweep engine: every yield curve in the repo — the offline
   matching-feasibility one below, and the runtime chaos path in
   [Runtime.Chaos] (detect -> repair -> re-verify through the serving
   stack) — funnels through this one function, so BENCH/EXPERIMENTS
   numbers and chaos reports cannot drift apart structurally. *)

(* Each trial runs on its own [Rng.split] child, drawn in strict trial
   order: a trial's internal draw count can change (richer trial
   functions, more defect draws) without perturbing any later trial. *)
let estimate_with ~trial:run_trial rng ?(trials = 200) ~defect_rate () =
  let acc = ref [] in
  for _ = 1 to trials do
    let child = Util.Rng.split rng in
    acc := run_trial child ~defect_rate :: !acc
  done;
  point_of_outcomes ~defect_rate (Array.of_list (List.rev !acc))

(* Every rate's stream is keyed by (one up-front master draw, the rate's
   own bit pattern) — never by the rate's position — so editing the rate
   list cannot shift any other rate's trials. The historical behaviour
   (one rng threaded through all rates in list order) made every point
   downstream of an inserted rate silently move; test_fault pins the
   independence. *)
let sweep_with ~trial rng ?trials ~rates () =
  let master = Util.Rng.bits64 rng in
  List.map
    (fun rate ->
      let key = Util.Rng.key () in
      Util.Rng.key_int64 key master;
      Util.Rng.key_int64 key (Int64.bits_of_float rate);
      estimate_with ~trial (Util.Rng.of_key key) ?trials ~defect_rate:rate ())
    rates

let estimate rng ?trials ?(spare_rows = 2) ?closed_share pla ~defect_rate =
  estimate_with
    ~trial:(fun rng ~defect_rate -> trial rng ~spare_rows ?closed_share pla ~defect_rate)
    rng ?trials ~defect_rate ()

let sweep rng ?trials ?(spare_rows = 2) ?closed_share pla ~rates =
  sweep_with
    ~trial:(fun rng ~defect_rate -> trial rng ~spare_rows ?closed_share pla ~defect_rate)
    rng ?trials ~rates ()

let functional_check rng ?closed_share pla cover ~defect_rate ~spare_rows =
  let n_in = Cnfet.Pla.num_inputs pla in
  if n_in > 16 then invalid_arg "Yield.functional_check: too many inputs";
  let maps = draw_maps rng ?closed_share pla ~spare_rows ~defect_rate in
  let and_defects, or_defects = maps in
  match Repair.repair ~spare_rows ~and_defects ~or_defects pla with
  | Repair.Unrepairable -> None
  | Repair.Repaired assignment ->
    let rows = Cnfet.Pla.num_products pla + spare_rows in
    let physical = Repair.apply pla assignment ~rows in
    (* The physical PLA through the defects against the cover mapped
       onto a clean array. *)
    let want = Table.eval (Cnfet.Pla.of_cover cover) in
    Some (Table.equal (Table.eval ~and_defects ~or_defects physical) want)
