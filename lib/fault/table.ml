module Gnor = Cnfet.Gnor
module Plane = Cnfet.Plane
module Pla = Cnfet.Pla

let lanes = 63

type space = { n : int; total : int; valid : int array }

let max_inputs = 20

let space n =
  if n < 0 || n > max_inputs then invalid_arg "Table.space: input count";
  let total = 1 lsl n in
  let nw = (total + lanes - 1) / lanes in
  let tail = total - ((nw - 1) * lanes) in
  let valid = Array.init nw (fun w -> if w < nw - 1 || tail = lanes then -1 else (1 lsl tail) - 1) in
  { n; total; valid }

let words sp = Array.length sp.valid

let column sp i =
  Array.init (words sp) (fun w ->
      let x = ref 0 in
      if i < sp.n then
        for b = 0 to lanes - 1 do
          let m = (w * lanes) + b in
          if m < sp.total && (m lsr i) land 1 = 1 then x := !x lor (1 lsl b)
        done;
      !x)

let gnor sp columns modes =
  let nw = words sp in
  let acc = Array.make nw 0 in
  Array.iteri
    (fun c mode ->
      let col = columns.(c) in
      match mode with
      | Gnor.Drop -> ()
      | Gnor.Pass ->
        for w = 0 to nw - 1 do
          acc.(w) <- acc.(w) lor col.(w)
        done
      | Gnor.Invert ->
        for w = 0 to nw - 1 do
          acc.(w) <- acc.(w) lor lnot col.(w)
        done)
    modes;
  for w = 0 to nw - 1 do
    acc.(w) <- lnot acc.(w) land sp.valid.(w)
  done;
  acc

let plane sp ?defects p columns =
  (match defects with
  | Some d when Defect.rows d <> Plane.rows p || Defect.cols d <> Plane.cols p ->
    invalid_arg "Table.plane: defect map shape mismatch"
  | _ -> ());
  Array.init (Plane.rows p) (fun r ->
      match defects with
      | None -> gnor sp columns (Plane.row_modes p r)
      | Some d when Defect.row_has_stuck_closed d r -> Array.make (words sp) 0
      | Some d ->
        let modes = Plane.row_modes p r in
        Array.iteri
          (fun c _ -> if Defect.kind d ~row:r ~col:c = Defect.Stuck_open then modes.(c) <- Gnor.Drop)
          modes;
        gnor sp columns modes)

let mem slice m = (slice.(m / lanes) lsr (m mod lanes)) land 1 = 1

type t = { sp : space; outs : int array array }

let eval ?and_defects ?or_defects pla =
  let sp = space (Pla.num_inputs pla) in
  let and_plane = Pla.and_plane pla in
  let columns = Array.init (Plane.cols and_plane) (column sp) in
  let products = plane sp ?defects:and_defects and_plane columns in
  let rows = plane sp ?defects:or_defects (Pla.or_plane pla) products in
  let outs =
    Array.init (Pla.num_outputs pla) (fun o ->
        if Pla.output_inverted pla o then Array.mapi (fun w x -> lnot x land sp.valid.(w)) rows.(o)
        else rows.(o))
  in
  { sp; outs }

let minterms t = t.sp.total

let check t m = if m < 0 || m >= t.sp.total then invalid_arg "Table: minterm out of range"

let outputs t m =
  check t m;
  Array.map (fun slice -> mem slice m) t.outs

let differs_at a b m =
  check a m;
  check b m;
  Array.exists2 (fun x y -> mem x m <> mem y m) a.outs b.outs

let equal a b = a.sp.n = b.sp.n && a.outs = b.outs

let minterm v =
  let m = ref 0 in
  Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) v;
  !m
