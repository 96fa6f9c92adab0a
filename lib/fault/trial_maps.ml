(* Every (trial, cell) crosspoint decision of a two-plane array, drawn
   once; a rate's maps keep the cells whose uniform is below the rate.
   Only cells under [max_rate] can ever fail, so only they are kept. *)

let trial_span = 1_000_000

(* Per trial, the candidate cells in ascending order: the cell number
   (the AND plane row-major, then the OR plane), its uniform and the
   stuck kind it takes when it fails. *)
type t = {
  rows : int;
  and_cols : int;
  n_out : int;
  max_rate : float;
  per_trial : (int * float * Defect.kind) array array;
}

let draw engine ~trials ~rows ~and_cols ~n_out ~max_rate =
  if trials < 0 || rows < 1 || and_cols < 1 || n_out < 1 then
    invalid_arg "Fault.Trial_maps.draw: negative trials or an empty plane";
  let cells = (rows * and_cols) + (n_out * rows) in
  if cells >= trial_span then
    invalid_arg
      (Printf.sprintf
         "Fault.Trial_maps.draw: %d cells per trial would overlap the next trial's keys (span %d)"
         cells trial_span);
  let per_trial =
    Array.init trials (fun trial ->
        let kept = ref [] in
        for j = cells - 1 downto 0 do
          let u, kind = Inject.crosspoint_draw_of engine ~index:((trial * trial_span) + j + 1) in
          if u < max_rate then kept := (j, u, kind) :: !kept
        done;
        Array.of_list !kept)
  in
  { rows; and_cols; n_out; max_rate; per_trial }

let at_rate t ~trial ~rate =
  if trial < 0 || trial >= Array.length t.per_trial then
    invalid_arg "Fault.Trial_maps.at_rate: trial out of range";
  if rate > t.max_rate then invalid_arg "Fault.Trial_maps.at_rate: rate above max_rate";
  let and_defects = Defect.perfect ~rows:t.rows ~cols:t.and_cols in
  let or_defects = Defect.perfect ~rows:t.n_out ~cols:t.rows in
  let and_cells = t.rows * t.and_cols in
  Array.iter
    (fun (j, u, kind) ->
      if u < rate then
        if j < and_cells then
          Defect.set and_defects ~row:(j / t.and_cols) ~col:(j mod t.and_cols) kind
        else
          let k = j - and_cells in
          Defect.set or_defects ~row:(k / t.rows) ~col:(k mod t.rows) kind)
    t.per_trial.(trial);
  (and_defects, or_defects)
