(** Crosspoint defect model for regular CNFET arrays (paper §5, after
    Schmid et al.).

    Immature nanotube processes leave a fraction of devices unusable. Two
    failure modes matter for a GNOR plane:
    {ul
    {- [Stuck_open]: the device never conducts — it can only serve a
       crosspoint whose desired mode is [Drop];}
    {- [Stuck_closed]: the device conducts whenever the row evaluates —
       it discharges the row unconditionally, making the row unusable
       (in an OR plane: acceptable only if the row's product is genuinely
       selected by that output).}} *)

type kind = Good | Stuck_open | Stuck_closed

type map
(** Defect map of one [rows × cols] plane. *)

val perfect : rows:int -> cols:int -> map

val random : Util.Rng.t -> rows:int -> cols:int -> rate:float -> ?closed_share:float -> unit -> map
(** Each crosspoint is defective independently with probability [rate];
    a defective one is [Stuck_closed] with probability [closed_share]
    (default 0.25, opens dominate in practice). *)

val kind : map -> row:int -> col:int -> kind

val set : map -> row:int -> col:int -> kind -> unit

val rows : map -> int

val cols : map -> int

val defect_count : map -> int

val row_has_stuck_closed : map -> int -> bool

val compatible_and_row : map -> row:int -> Cnfet.Gnor.input_mode array -> bool
(** Can this physical AND-plane row realize the given row configuration?
    [Stuck_open] needs [Drop] at that column; any [Stuck_closed] in the
    row kills it. *)

val eval_with_defects : map -> Cnfet.Plane.t -> bool array -> bool array
(** What the physical plane actually computes when the target
    configuration is programmed through the defects: [Stuck_open]
    crosspoints behave as [Drop]; a row containing a [Stuck_closed]
    crosspoint evaluates to constant 0 (the device discharges the
    pre-charged row unconditionally). *)

val eval_pla : and_defects:map -> or_defects:map -> Cnfet.Pla.t -> bool array -> bool array
(** The outputs of a whole PLA programmed through per-plane defect maps
    on one input vector: inputs padded to the AND plane's width as in
    {!Cnfet.Pla.eval}, both planes through {!eval_with_defects}, output
    phase inversion applied. The per-vector reference for {!Table}. *)
