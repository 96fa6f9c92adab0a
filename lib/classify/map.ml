module Pla = Cnfet.Pla
module Defect = Fault.Defect

type t = {
  model : Model.t;
  cover : Logic.Cover.t;
  pla : Cnfet.Pla.t;
  area : int;
}

let lower ?(minimize = true) (m : Model.t) =
  let nf = m.Model.n_features in
  if nf > 16 then
    invalid_arg
      (Printf.sprintf "Classify.Map.lower: %d features (exhaustive lowering capped at 16)" nf);
  let nb = Model.label_bits m in
  let minterms = 1 lsl nf in
  let cubes = ref [] in
  for v = minterms - 1 downto 0 do
    let x = Array.init nf (fun i -> v land (1 lsl i) <> 0) in
    let label = Model.predict m x in
    if label <> 0 then begin
      let outs = Util.Bitvec.create nb in
      for b = 0 to nb - 1 do
        if label land (1 lsl b) <> 0 then Util.Bitvec.set outs b true
      done;
      let literals =
        List.init nf (fun i -> if x.(i) then Logic.Cube.One else Logic.Cube.Zero)
      in
      cubes := Logic.Cube.of_literals literals ~outs :: !cubes
    end
  done;
  let raw = Logic.Cover.make ~n_in:nf ~n_out:nb !cubes in
  let cover = if minimize then Espresso.Minimize.cover raw else raw in
  let pla = Pla.of_cover cover in
  let area = Cnfet.Folding.folded_pla_area Device.Tech.cnfet pla in
  { model = m; cover; pla; area }

let decode bits =
  let v = ref 0 in
  Array.iteri (fun b on -> if on then v := !v lor (1 lsl b)) bits;
  !v

let classify t x = decode (Pla.eval t.pla x)

let identity_physical t ~spare_rows =
  if spare_rows < 0 then invalid_arg "Classify.Map.identity_physical: negative spare_rows";
  let products = Pla.num_products t.pla in
  Fault.Repair.apply t.pla (Array.init products Fun.id) ~rows:(products + spare_rows)

let eval_defective = Defect.eval_pla

let classify_defective ~and_defects ~or_defects pla x =
  decode (eval_defective ~and_defects ~or_defects pla x)

let labels_defective ~and_defects ~or_defects pla =
  let t = Fault.Table.eval ~and_defects ~or_defects pla in
  Array.init (Fault.Table.minterms t) (fun m -> decode (Fault.Table.outputs t m))
