module Stage = Stage_core

type outcome = {
  flavour : Arch.flavour;
  grid : int;
  sites : int;
  blocks_used : int;
  occupancy : float;
  wirelength : int;
  routed_segments : int;
  route_overflow : int;
  route_iterations : int;
  timing : Timing.report;
}

let outcome_of_routed arch design placement routing timing =
  let used = Design.block_count design in
  {
    flavour = arch.Arch.flavour;
    grid = arch.Arch.grid;
    sites = Arch.sites arch;
    blocks_used = used;
    occupancy = Arch.occupancy arch ~used;
    wirelength = Place.total_wirelength placement;
    routed_segments = routing.Route.total_segments;
    route_overflow = routing.Route.overflow;
    route_iterations = routing.Route.iterations;
    timing;
  }

(* --- the staged flow ---------------------------------------------------- *)

type attempt = { a_placement : Place.t; a_routing : Route.result; a_outcome : outcome }

let place_stage ?weights rng arch =
  Stage.stage "fpga.place" (fun design -> (design, Place.place ?weights rng arch design))

let route_stage =
  Stage.stage "fpga.route" (fun (design, placement) -> (design, placement, Route.route placement))

let timing_stage arch =
  Stage.stage "fpga.timing" (fun (design, placement, routing) ->
      let timing = Timing.analyze placement routing in
      {
        a_placement = placement;
        a_routing = routing;
        a_outcome = outcome_of_routed arch design placement routing timing;
      })

let staged ?weights rng arch =
  Stage.(place_stage ?weights rng arch >>> route_stage >>> timing_stage arch)

let run_attempt ?weights rng arch design = Stage.exec_exn (staged ?weights rng arch) design

let run rng arch design = (run_attempt rng arch design).a_outcome

(* Timing-driven refinement: each round is one more execution of the same
   staged place → route → time pipeline, preceded by a criticality stage
   that turns the previous round's timing into connection weights. *)
let criticality_stage =
  Stage.stage "fpga.criticality" (fun a ->
      let crits = Timing.criticalities a.a_placement a.a_routing in
      (* Sharp exponent (VPR-style): only the truly critical connections
         should dominate the cost. *)
      (a, Array.map (fun c -> 1.0 +. (7.0 *. (c ** 8.0))) crits))

(* The weights computed by the criticality stage shape the next place
   stage, so the round's tail is a [dyn] segment built from the value
   flowing through the pipeline. *)
let refinement_round rng arch design =
  Stage.(
    criticality_stage
    >>> dyn "fpga.replace" (fun (_prev, weights) ->
            pure (fun (_ : attempt * float array) -> design) >>> staged ~weights rng arch))

let run_timing_driven ?(rounds = 1) rng arch design =
  let first = run_attempt rng arch design in
  let round = refinement_round rng arch design in
  let rec refine best_outcome prev k =
    if k = 0 then best_outcome
    else begin
      let attempt = Stage.exec_exn round prev in
      let best =
        if
          attempt.a_outcome.timing.Timing.critical_path
          < best_outcome.timing.Timing.critical_path
        then attempt.a_outcome
        else best_outcome
      in
      refine best attempt (k - 1)
    end
  in
  refine first.a_outcome first rounds

let run_standard rng ~grid design = run rng (Arch.standard ~grid) design

let run_cnfet rng ~grid design =
  let absorbed = Design.absorb_inverters design in
  (* Same die: the CNFET grid is derived from the standard one; half-area
     CLBs pack √2 more per side. *)
  let arch = Arch.cnfet ~grid in
  run rng arch absorbed

type table2 = { standard : outcome; cnfet : outcome; speedup : float }

let table2_design rng ~grid =
  let sites = grid * grid in
  let n_blocks = int_of_float (0.99 *. float_of_int sites) in
  Design.random rng ~n_pi:(2 * grid) ~n_blocks ~fanin:4 ~inverter_fraction:0.095 ~layers:12 ()

let table2_experiment ?(seed = 2008) ?(grid = 17) () =
  let rng = Util.Rng.create seed in
  let pipeline =
    Stage.(
      stage "table2.design" (fun () -> table2_design rng ~grid)
      >>> stage "table2.standard" (fun design ->
              (design, run_standard (Util.Rng.split rng) ~grid design))
      >>> stage "table2.cnfet" (fun (design, standard) ->
              let cnfet = run_cnfet (Util.Rng.split rng) ~grid design in
              {
                standard;
                cnfet;
                speedup =
                  cnfet.timing.Timing.frequency_hz /. standard.timing.Timing.frequency_hz;
              }))
  in
  Stage.exec_exn pipeline ()

let pp_outcome fmt o =
  Format.fprintf fmt
    "%s: grid=%dx%d blocks=%d occ=%.1f%% wl=%d segs=%d overflow=%d iters=%d %a"
    (Arch.flavour_name o.flavour) o.grid o.grid o.blocks_used (100.0 *. o.occupancy)
    o.wirelength o.routed_segments o.route_overflow o.route_iterations Timing.pp_report
    o.timing
