(** The closed self-healing loop: inject → detect → repair → re-verify.

    Arms {!Fault.Inject} and drives the whole serving stack through it in
    rounds, exercising every recovery mechanism the runtime owns:

    {ul
    {- {b supervised batches}: input-space sweeps through
       {!Supervisor.run_all}, each task one {!Cache.resolve} and one
       8-lane {!Cache.eval_block}, while pool tasks raise, stall and
       crash their workers and compiled-cache entries rot — results must
       stay bit-identical to the fault-free oracle (crashes are
       respawned, failures retried, rotten stores checksum-detected and
       served by {!Cache.resolve}'s standalone compiled entry);}
    {- {b crosspoint faults}: programmed cells flip to stuck states,
       {!Fault.Atpg} vectors expose the miscompares, {!Fault.Repair}
       re-maps products onto spare rows, small arrays are physically
       reprogrammed through {!Cnfet.Program_hw} and the result is
       re-verified through the defects;}
    {- {b PG charge drift}: storage nodes of a live programmed array
       drift ({!Cnfet.Program_hw.disturb}), readback catches the decode
       flips, the cells are rewritten and verified;}
    {- {b crossbar scrub}: interconnect crosspoints flip against a
       golden snapshot ({!Cnfet.Crossbar.copy}/[equal]); the scrubber
       restores and re-verifies routing.}}

    Every recovery is timed; the report carries latency percentiles and
    a [degradation] fraction (operations that had to leave the fast
    path), the numbers the CI smoke gate checks. *)

type scenario = {
  sc_name : string;
  sc_rounds : int;
  sc_injected : int;  (** faults this scenario's sites drew *)
  sc_detected : int;
  sc_repaired : int;
  sc_unrepairable : int;  (** repair infeasible within the spare budget *)
  sc_undetected : int;  (** injected but masked (no observable miscompare) *)
}

type report = {
  seed : int;
  budget_s : float;
  wall_s : float;
  rounds : int;
  jobs : int;
  spare_rows : int;
  injected_by_category : (string * int) list;
  injected_total : int;
  scenarios : scenario list;
  miscompares : int;  (** supervised-batch results differing from the oracle — must be 0 *)
  worker_crashes : int;
  retries : int;
  deadline_expiries : int;
  serial_fallbacks : int;
  cache_corruptions : int;
  fallback_evals : int;  (** vectors served by {!Cache.resolve}'s standalone entry *)
  degradation : float;  (** degraded operations / total operations *)
  recoveries : int;
  recovery_p50_s : float;
  recovery_p90_s : float;
  recovery_p99_s : float;
  recovery_max_s : float;
}

val detected_unrepaired : report -> int
(** Faults that were injected {e and} detected but neither repaired nor
    proven unrepairable within the spare budget — the CI smoke gate
    requires 0. *)

(** One pass of the closed repair loop on a single programmed array —
    the kernel of the crosspoint scenario, exposed so other workloads
    (the classification degradation envelope) drive the {e same}
    detect → repair → re-verify path instead of reimplementing it. *)
type recovery_outcome = {
  rv_status :
    [ `Clean  (** the defect maps carry no defects; nothing to do *)
    | `Undetected  (** defects present but masked on the test set *)
    | `Repaired of Fault.Repair.assignment
      (** spare-row remap found and re-verified through the defects *)
    | `Unrepairable
    | `Reverify_failed  (** remap found but still miscompares through the defects *) ];
  rv_wall_s : float;  (** measured detect + repair + re-verify wall seconds *)
}

val recover :
  ?spare_rows:int ->
  tests:bool array list ->
  and_defects:Fault.Defect.map ->
  or_defects:Fault.Defect.map ->
  Cnfet.Pla.t ->
  recovery_outcome
(** Detection looks [tests] (normally {!Fault.Atpg.generate} vectors)
    up in the {!Fault.Table} of the identity-mapped array through the
    defects; on a miscompare, {!Fault.Repair.repair} searches an
    assignment over [products + spare_rows] physical rows (the defect
    maps must have that geometry), and the repaired array's table
    through the defects must equal the good table on every minterm. The
    status is deterministic in its arguments; [rv_wall_s] is
    measurement. *)

val run :
  ?seed:int ->
  ?budget_s:float ->
  ?max_rounds:int ->
  ?spare_rows:int ->
  ?jobs:int ->
  ?plan:Fault.Inject.plan ->
  unit ->
  report
(** Run chaos rounds until the wall-clock budget (default 10 s) or
    [max_rounds] (default 50) is exhausted. Deterministic in [seed]
    (default 42) up to wall-clock-dependent round count and latency
    readings: pin [max_rounds] under a generous budget for exact
    reproducibility. Arms {!Fault.Inject} for the duration; raises
    [Invalid_argument] if an engine is already armed. *)

val to_json : report -> string

val summary : report -> string
(** Human-readable multi-line rendering. *)
