module Pla = Cnfet.Pla
module Plane = Cnfet.Plane
module Gnor = Cnfet.Gnor

type plane_kind = And_plane | Or_plane

type fault = { plane : plane_kind; row : int; col : int; kind : Defect.kind }

let all_faults pla =
  let faults = ref [] in
  let scan plane_kind plane =
    Plane.iter
      (fun row col mode ->
        if mode <> Gnor.Drop then
          faults := { plane = plane_kind; row; col; kind = Defect.Stuck_open } :: !faults;
        faults := { plane = plane_kind; row; col; kind = Defect.Stuck_closed } :: !faults)
      plane
  in
  scan And_plane (Pla.and_plane pla);
  scan Or_plane (Pla.or_plane pla);
  List.rev !faults

let maps_for pla fault =
  let and_plane = Pla.and_plane pla and or_plane = Pla.or_plane pla in
  let and_d = Defect.perfect ~rows:(Plane.rows and_plane) ~cols:(Plane.cols and_plane) in
  let or_d = Defect.perfect ~rows:(Plane.rows or_plane) ~cols:(Plane.cols or_plane) in
  (match fault.plane with
  | And_plane -> Defect.set and_d ~row:fault.row ~col:fault.col fault.kind
  | Or_plane -> Defect.set or_d ~row:fault.row ~col:fault.col fault.kind);
  (and_d, or_d)

let faulty_outputs pla fault inputs =
  let and_defects, or_defects = maps_for pla fault in
  Defect.eval_pla ~and_defects ~or_defects pla inputs

let detects pla fault inputs = faulty_outputs pla fault inputs <> Pla.eval pla inputs

exception Too_many_inputs of { inputs : int; limit : int }

let input_limit = 14

let check_size pla =
  let inputs = Pla.num_inputs pla in
  if inputs > input_limit then raise (Too_many_inputs { inputs; limit = input_limit })

(* Detection set of each single fault: the minterms (a [Table] slice) on
   which the faulty outputs differ from the good ones. Only the faulted
   row is re-evaluated — an AND fault's product row and then the OR rows
   over it, an OR fault's own row — and XORed against the good rows
   (output inversion cancels in the XOR). *)
let detection_sets pla faults =
  let sp = Table.space (Pla.num_inputs pla) in
  let and_plane = Pla.and_plane pla in
  let columns = Array.init (Plane.cols and_plane) (Table.column sp) in
  let products = Table.plane sp and_plane columns in
  let or_modes = Array.init (Pla.num_outputs pla) (Plane.row_modes (Pla.or_plane pla)) in
  let rows = Array.map (Table.gnor sp products) or_modes in
  let faulted_row modes cols fault =
    match fault.kind with
    | Defect.Stuck_closed -> Array.make (Table.words sp) 0
    | Defect.Stuck_open ->
      let modes = Array.copy modes in
      modes.(fault.col) <- Gnor.Drop;
      Table.gnor sp cols modes
    | Defect.Good -> Table.gnor sp cols modes
  in
  let xor_into set a b = Array.iteri (fun w x -> set.(w) <- set.(w) lor (x lxor b.(w))) a in
  Array.map
    (fun fault ->
      let set = Array.make (Table.words sp) 0 in
      (match fault.plane with
      | And_plane ->
        let p = faulted_row (Plane.row_modes and_plane fault.row) columns fault in
        if p <> products.(fault.row) then begin
          let products = Array.copy products in
          products.(fault.row) <- p;
          Array.iteri (fun o modes -> xor_into set rows.(o) (Table.gnor sp products modes)) or_modes
        end
      | Or_plane ->
        (* The padding row of an output-less PLA drives no output. *)
        if fault.row < Array.length rows then
          xor_into set rows.(fault.row) (faulted_row or_modes.(fault.row) products fault));
      set)
    faults

let detectable set = Array.exists (fun x -> x <> 0) set

let generate pla =
  check_size pla;
  let n_in = Pla.num_inputs pla in
  let faults = Array.of_list (all_faults pla) in
  let sets = detection_sets pla faults in
  let total = 1 lsl n_in in
  let vector m = Array.init n_in (fun i -> m land (1 lsl i) <> 0) in
  (* Transpose into per-vector fault bitsets: bit k mod 63 of word
     m·fw + k/63 says vector m exposes fault k. *)
  let fw = (Array.length faults + 62) / 63 in
  let by_vector = Array.make (total * fw) 0 in
  let remaining = Array.make fw 0 in
  let left = ref 0 in
  let add words i k = words.(i) <- words.(i) lor (1 lsl (k mod 63)) in
  Array.iteri
    (fun k set ->
      if detectable set then begin
        add remaining (k / 63) k;
        incr left;
        for m = 0 to total - 1 do
          if Table.mem set m then add by_vector ((m * fw) + (k / 63)) k
        done
      end)
    sets;
  (* Greedy cover: repeatedly take the first vector exposing the most
     remaining faults. *)
  let tests = ref [] in
  while !left > 0 do
    let best_m = ref 0 and best_gain = ref (-1) in
    for m = 0 to total - 1 do
      let gain = ref 0 in
      for i = 0 to fw - 1 do
        gain := !gain + Util.Bits.popcount (by_vector.((m * fw) + i) land remaining.(i))
      done;
      if !gain > !best_gain then begin
        best_gain := !gain;
        best_m := m
      end
    done;
    assert (!best_gain > 0);
    tests := vector !best_m :: !tests;
    for i = 0 to fw - 1 do
      remaining.(i) <- remaining.(i) land lnot by_vector.((!best_m * fw) + i)
    done;
    left := !left - !best_gain
  done;
  let undetectable = List.filteri (fun k _ -> not (detectable sets.(k))) (Array.to_list faults) in
  (List.rev !tests, undetectable)

let coverage pla tests =
  check_size pla;
  let n_in = Pla.num_inputs pla in
  let vectors =
    List.map
      (fun v ->
        if Array.length v <> n_in then invalid_arg "Atpg.coverage: vector width";
        Table.minterm v)
      tests
  in
  let sets = detection_sets pla (Array.of_list (all_faults pla)) in
  let n_detectable = ref 0 and caught = ref 0 in
  Array.iter
    (fun set ->
      if detectable set then begin
        incr n_detectable;
        if List.exists (Table.mem set) vectors then incr caught
      end)
    sets;
  if !n_detectable = 0 then 1.0 else float_of_int !caught /. float_of_int !n_detectable
