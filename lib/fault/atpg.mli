(** Test-pattern generation for programmed CNFET PLAs.

    After manufacture (or field reconfiguration) the array must be
    {e tested}: which input vectors expose which crosspoint faults? The
    single-fault model covers every crosspoint of both planes going
    stuck-open or stuck-closed. A fault is {e detected} by a vector when
    the faulty PLA's outputs differ from the good one's.

    Generation works on bit-sliced truth tables ({!Table}): the good
    array is evaluated once over the whole input space (≤ 14 inputs), and
    each single fault's {e detection set} — the minterms on which its
    outputs differ — comes from re-evaluating only the faulted row (an
    AND fault's product row, then the OR rows over it; an OR fault's own
    row) and XORing against the good rows. A greedy cover over per-vector
    fault bitsets then repeatedly takes the first vector exposing the
    most remaining faults (popcount). The cost is about
    [faults × outputs × products × 2^inputs / 63] word operations for
    the sets plus [tests × 2^inputs × faults / 63] for the cover — on
    one core of a 2-vCPU x86-64 VM, 4 ms for the 714-fault classifier
    PLA and 0.13 s for the 5506-fault pri3.
    The regular structure keeps the test sets small, one more practical
    payoff of the PLA architecture. *)

type plane_kind = And_plane | Or_plane

type fault = {
  plane : plane_kind;
  row : int;
  col : int;
  kind : Defect.kind;  (** [Stuck_open] or [Stuck_closed] *)
}

exception Too_many_inputs of { inputs : int; limit : int }
(** Raised by {!generate} and {!coverage} when the PLA has more than
    {!input_limit} inputs: both enumerate the whole input space, so the
    work is [2^inputs] and the limit is a guard against runaway jobs, not
    a soft heuristic. Catch it to fall back to sampled testing. *)

val input_limit : int
(** Largest exhaustively-enumerable input count (14). *)

val all_faults : Cnfet.Pla.t -> fault list
(** Every crosspoint of both planes × both fault kinds, except
    stuck-open faults on crosspoints programmed [Drop] (no effect by
    construction). *)

val faulty_outputs : Cnfet.Pla.t -> fault -> bool array -> bool array
(** Outputs of the PLA with the single fault injected, on one vector
    ({!Defect.eval_pla}). A per-vector reference: {!generate} and
    {!coverage} do not call it. *)

val detects : Cnfet.Pla.t -> fault -> bool array -> bool
(** [faulty_outputs] differs from {!Cnfet.Pla.eval} on this vector. *)

val generate : Cnfet.Pla.t -> bool array list * fault list
(** [(tests, undetectable)]: a compacted vector set detecting every
    detectable fault, and the faults no vector exposes (logically
    redundant crosspoint states).

    @raise Too_many_inputs above {!input_limit} inputs. *)

val coverage : Cnfet.Pla.t -> bool array list -> float
(** Fraction of detectable faults caught by a given vector set, on the
    same detection sets as {!generate}. Raises [Invalid_argument] on a
    vector whose width is not the input count.

    @raise Too_many_inputs above {!input_limit} inputs. *)
