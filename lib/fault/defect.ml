type kind = Good | Stuck_open | Stuck_closed

type map = { nrows : int; ncols : int; cells : kind array array }

let perfect ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Defect.perfect";
  { nrows = rows; ncols = cols; cells = Array.init rows (fun _ -> Array.make cols Good) }

let random rng ~rows ~cols ~rate ?(closed_share = 0.25) () =
  let m = perfect ~rows ~cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if Util.Rng.bernoulli rng rate then
        m.cells.(r).(c) <-
          (if Util.Rng.bernoulli rng closed_share then Stuck_closed else Stuck_open)
    done
  done;
  m

let check m ~row ~col =
  if row < 0 || row >= m.nrows || col < 0 || col >= m.ncols then
    invalid_arg "Defect: out of range"

let kind m ~row ~col =
  check m ~row ~col;
  m.cells.(row).(col)

let set m ~row ~col k =
  check m ~row ~col;
  m.cells.(row).(col) <- k

let rows m = m.nrows
let cols m = m.ncols

let defect_count m =
  let n = ref 0 in
  Array.iter (Array.iter (fun k -> if k <> Good then incr n)) m.cells;
  !n

let row_has_stuck_closed m r =
  if r < 0 || r >= m.nrows then invalid_arg "Defect.row_has_stuck_closed";
  Array.exists (fun k -> k = Stuck_closed) m.cells.(r)

let compatible_and_row m ~row modes =
  if Array.length modes <> m.ncols then invalid_arg "Defect.compatible_and_row";
  if row < 0 || row >= m.nrows then invalid_arg "Defect.compatible_and_row";
  let ok = ref true in
  Array.iteri
    (fun c k ->
      match k with
      | Good -> ()
      | Stuck_open -> if modes.(c) <> Cnfet.Gnor.Drop then ok := false
      | Stuck_closed -> ok := false)
    m.cells.(row);
  !ok

let eval_with_defects m plane inputs =
  if Cnfet.Plane.rows plane <> m.nrows || Cnfet.Plane.cols plane <> m.ncols then
    invalid_arg "Defect.eval_with_defects: shape mismatch";
  Array.init m.nrows (fun r ->
      if row_has_stuck_closed m r then false
      else begin
        let modes = Cnfet.Plane.row_modes plane r in
        Array.iteri
          (fun c k -> if k = Stuck_open then modes.(c) <- Cnfet.Gnor.Drop)
          m.cells.(r);
        Cnfet.Gnor.eval_functional modes inputs
      end)

let eval_pla ~and_defects ~or_defects pla inputs =
  let n_in = Cnfet.Pla.num_inputs pla in
  if Array.length inputs <> n_in then invalid_arg "Defect.eval_pla: input width";
  let and_plane = Cnfet.Pla.and_plane pla in
  let padded = Array.init (Cnfet.Plane.cols and_plane) (fun i -> i < n_in && inputs.(i)) in
  let products = eval_with_defects and_defects and_plane padded in
  let rows = eval_with_defects or_defects (Cnfet.Pla.or_plane pla) products in
  Array.init (Cnfet.Pla.num_outputs pla) (fun o ->
      if Cnfet.Pla.output_inverted pla o then not rows.(o) else rows.(o))
