(** End-to-end FPGA flow (generate → place → route → time) and the paper's
    Table 2 experiment, built as {!Stage_core} pipelines.

    The experiment mirrors the paper's emulation: one logical design is
    implemented on (a) a standard PLA-based FPGA it fills to ~99%, routing
    two wires per connection and keeping inverters as blocks, and (b) the
    ambipolar-CNFET fabric on the same die — CLBs at half area (pitch /
    √2), one wire per connection, inverters absorbed into GNOR polarity
    configuration.

    Every entry point below is a composition of named stages
    ([fpga.place], [fpga.route], [fpga.timing], plus [fpga.criticality] /
    [fpga.replace] for timing-driven refinement and [table2.*] for the
    experiment), so flows inherit spans, per-stage latency histograms and
    typed failure capture from the stage engine — and the population
    sweep ({!Sweep.Drive}) reuses {!staged} verbatim. The golden
    [test/golden/fpga_flow.json] pins the flow's placements and outcomes
    bit for bit. *)

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

type attempt = { a_placement : Place.t; a_routing : Route.result; a_outcome : outcome }
(** One executed place → route → time pipeline, keeping the physical
    results the next refinement round needs. *)

val staged : ?weights:float array -> Util.Rng.t -> Arch.t -> (Design.t, attempt) Stage_core.t
(** The flow as a reusable pipeline: [fpga.place >>> fpga.route >>>
    fpga.timing]. The rng is consumed by the place stage exactly as the
    direct calls would. *)

val run : Util.Rng.t -> Arch.t -> Design.t -> outcome
(** Place, route and time one design on one architecture
    ({!Stage_core.exec_exn} of {!staged}: stage exceptions propagate
    unchanged). *)

val run_timing_driven : ?rounds:int -> Util.Rng.t -> Arch.t -> Design.t -> outcome
(** {!run}, then [rounds] (default 1) executions of the refinement round
    pipeline — [fpga.criticality] turns the previous attempt's timing
    into connection weights [1 + 7·criticality⁸], and a [dyn] segment
    re-runs {!staged} with those weights — keeping whichever placement
    times best. Gains a few percent on designs with uneven path depths
    (mapped functions); depth-uniform netlists have nothing to trade. *)

val run_standard : Util.Rng.t -> grid:int -> Design.t -> outcome

val run_cnfet : Util.Rng.t -> grid:int -> Design.t -> outcome
(** [grid] is the {e standard} grid; the CNFET architecture derives its
    own (larger) grid from the same die. Inverters are absorbed before
    mapping. *)

type table2 = { standard : outcome; cnfet : outcome; speedup : float }

val table2_experiment : ?seed:int -> ?grid:int -> unit -> table2
(** Full Table 2 reproduction as a [table2.design >>> table2.standard >>>
    table2.cnfet] pipeline. The design is sized to fill the standard
    device to ≈99%; defaults: [seed 2008], [grid 17]. *)

val pp_outcome : Format.formatter -> outcome -> unit
