(** Crosspoint defect maps for repeated trials over one two-plane array,
    every cell decision drawn once and shared by every fault rate.

    Cell [j] of trial [k] (the AND plane's [rows × and_cols] cells
    row-major, then the OR plane's [n_out × rows]) is keyed by index
    [k × trial_span + j + 1] on the engine's crosspoint stream
    ({!Inject.crosspoint_draw_of}). At rate [r] the cell is defective iff
    its uniform is below [r], so the maps at [r] equal those built cell
    by cell with {!Inject.crosspoint_fault_of} on an engine whose
    [crosspoint_flip] is [r], and defect sets are nested across rates. *)

type t

val trial_span : int
(** Index distance between consecutive trials' keys: 1 000 000. *)

val draw :
  Inject.t -> trials:int -> rows:int -> and_cols:int -> n_out:int -> max_rate:float -> t
(** Draw every cell of [trials] trials of an array whose AND plane is
    [rows × and_cols] and whose OR plane is [n_out × rows], keeping the
    cells that fail at [max_rate] (the highest rate that will be asked
    for). The engine's [crosspoint_closed_share] splits the stuck
    kinds; its [crosspoint_flip] is not read and nothing is tallied.
    Raises [Invalid_argument] on negative [trials] or an empty plane,
    or when a trial has [≥ trial_span] cells, since its keys would then
    run into the next trial's. *)

val at_rate : t -> trial:int -> rate:float -> Defect.map * Defect.map
(** Fresh [(and_defects, or_defects)] of one trial at [rate]. Raises
    [Invalid_argument] when [trial] is out of range or [rate] is above
    the draw's [max_rate]. *)
