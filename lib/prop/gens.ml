module Cube = Logic.Cube
module Cover = Logic.Cover
module Bitvec = Util.Bitvec

(* ------------------------------------------------------------------ *)
(* Cubes and covers                                                    *)
(* ------------------------------------------------------------------ *)

type cube_spec = { lits : int array; outs : int }

let boundary_widths = [ 1; 2; 3; 5; 8; 29; 30; 31; 32; 33; 35; 61; 62; 63; 64; 65 ]

let small_widths = [ 1; 2; 3; 4; 5; 6 ]

let outs_bitvec n_out mask =
  let v = Bitvec.create n_out in
  for o = 0 to n_out - 1 do
    if mask land (1 lsl o) <> 0 then Bitvec.set v o true
  done;
  v

let cube_of_spec ~n_in ~n_out s =
  if Array.length s.lits <> n_in then invalid_arg "Gens.cube_of_spec";
  let c = ref (Cube.make ~n_in ~n_out) in
  Array.iteri (fun i l -> if l <> 3 then c := Cube.raw_set !c i l) s.lits;
  Cube.with_outputs !c (outs_bitvec n_out s.outs)

let raw_literal ~dc_weight =
  Gen.frequency [ (dc_weight, Gen.return 3); (1, Gen.return 1); (1, Gen.return 2) ]

let cube_spec ?(dc_weight = 2) ?(allow_empty_outs = false) ~n_in ~n_out () =
  let open Gen in
  let* lits = array_n n_in (raw_literal ~dc_weight) in
  let lo = if allow_empty_outs then 0 else 1 in
  let* outs = int_range lo ((1 lsl n_out) - 1) in
  return { lits; outs }

let shrink_raw_literal l = if l = 3 then Seq.empty else Seq.return 3

let shrink_outs ~allow_empty mask =
  (* Drop one selected output at a time. *)
  Seq.filter_map
    (fun o ->
      if mask land (1 lsl o) = 0 then None
      else begin
        let m' = mask land lnot (1 lsl o) in
        if m' = 0 && not allow_empty then None else Some m'
      end)
    (Seq.init (Sys.int_size - 2) Fun.id)

let shrink_cube_spec ?(allow_empty_outs = false) s =
  Seq.append
    (Seq.map (fun lits -> { s with lits }) (Shrink.array_fixed shrink_raw_literal s.lits))
    (Seq.map (fun outs -> { s with outs }) (shrink_outs ~allow_empty:allow_empty_outs s.outs))

(* A differential cube case: two cubes of one (possibly >31-literal) arity
   plus a minterm, everything an operation of the packed kernel needs. *)
type cube_case = { cc_n_in : int; cc_n_out : int; cc_a : cube_spec; cc_b : cube_spec; cc_minterm : bool array }

let cube_case_to_cubes c =
  ( cube_of_spec ~n_in:c.cc_n_in ~n_out:c.cc_n_out c.cc_a,
    cube_of_spec ~n_in:c.cc_n_in ~n_out:c.cc_n_out c.cc_b )

let cube_case ?(widths = boundary_widths) () =
  let open Gen in
  let* n_in = oneofl widths in
  let* n_out = int_range 1 3 in
  let* a = cube_spec ~allow_empty_outs:true ~n_in ~n_out () in
  (* Bias [b] toward overlapping [a]: containment/intersection paths are
     only exercised when the cubes are related. *)
  let* related = bool in
  let* b =
    if related then
      let* lits =
        array_n n_in
          (frequency [ (3, return 0) (* copy a's literal *); (1, raw_literal ~dc_weight:2) ])
      in
      let* outs = int_range 0 ((1 lsl n_out) - 1) in
      return { lits; outs }
    else cube_spec ~allow_empty_outs:true ~n_in ~n_out ()
  in
  let b = { b with lits = Array.mapi (fun i l -> if l = 0 then a.lits.(i) else l) b.lits } in
  let* minterm = array_n n_in bool in
  return { cc_n_in = n_in; cc_n_out = n_out; cc_a = a; cc_b = b; cc_minterm = minterm }

let shrink_cube_case c =
  Seq.append
    (Seq.map
       (fun a -> { c with cc_a = a })
       (shrink_cube_spec ~allow_empty_outs:true c.cc_a))
    (Seq.map
       (fun b -> { c with cc_b = b })
       (shrink_cube_spec ~allow_empty_outs:true c.cc_b))

let print_cube_case c =
  let a, b = cube_case_to_cubes c in
  Printf.sprintf "n_in=%d n_out=%d\na = %s\nb = %s\nminterm = %s" c.cc_n_in c.cc_n_out
    (Cube.to_string a) (Cube.to_string b)
    (String.concat "" (Array.to_list (Array.map (fun v -> if v then "1" else "0") c.cc_minterm)))

let arb_cube_case ?widths () =
  Arb.make ~shrink:shrink_cube_case ~print:print_cube_case (cube_case ?widths ())

(* Covers *)

type cover_spec = { cv_n_in : int; cv_n_out : int; cv_cubes : cube_spec list }

let cover_of_spec s =
  Cover.make ~n_in:s.cv_n_in ~n_out:s.cv_n_out
    (List.map (cube_of_spec ~n_in:s.cv_n_in ~n_out:s.cv_n_out) s.cv_cubes)

let cover_spec ?(widths = small_widths) ?(max_out = 3) ?(min_cubes = 0) ?(max_cubes = 10)
    ?(dc_weight = 2) () =
  let open Gen in
  let* n_in = oneofl widths in
  let* n_out = int_range 1 max_out in
  let* n_cubes = int_range min_cubes max_cubes in
  let* cubes = list_n n_cubes (cube_spec ~dc_weight ~n_in ~n_out ()) in
  return { cv_n_in = n_in; cv_n_out = n_out; cv_cubes = cubes }

let shrink_cover_spec ?(min_cubes = 0) s =
  Seq.filter_map
    (fun cubes ->
      if List.length cubes < min_cubes then None else Some { s with cv_cubes = cubes })
    (Shrink.list ~elt:shrink_cube_spec s.cv_cubes)

let print_cover_spec s =
  Printf.sprintf "n_in=%d n_out=%d\n%s" s.cv_n_in s.cv_n_out (Cover.to_string (cover_of_spec s))

let arb_cover_spec ?widths ?max_out ?min_cubes ?max_cubes ?dc_weight () =
  Arb.make
    ~shrink:(shrink_cover_spec ?min_cubes)
    ~print:print_cover_spec
    (cover_spec ?widths ?max_out ?min_cubes ?max_cubes ?dc_weight ())

(* On-set plus don't-care set of one arity, for the espresso properties. *)
type cover_dc_spec = { fd_f : cover_spec; fd_dc : cover_spec }

let cover_dc_spec ?(widths = small_widths) ?(max_out = 3) ?(max_cubes = 8) () =
  let open Gen in
  let* f = cover_spec ~widths ~max_out ~max_cubes () in
  let* dc_cubes = int_range 0 2 in
  let* cubes = list_n dc_cubes (cube_spec ~n_in:f.cv_n_in ~n_out:f.cv_n_out ()) in
  return { fd_f = f; fd_dc = { cv_n_in = f.cv_n_in; cv_n_out = f.cv_n_out; cv_cubes = cubes } }

let shrink_cover_dc_spec s =
  Seq.append
    (Seq.map (fun f -> { s with fd_f = f }) (shrink_cover_spec s.fd_f))
    (Seq.map (fun dc -> { s with fd_dc = dc }) (shrink_cover_spec s.fd_dc))

let print_cover_dc_spec s =
  Printf.sprintf "on-set:\n%s\ndc-set:\n%s" (print_cover_spec s.fd_f) (print_cover_spec s.fd_dc)

let arb_cover_dc_spec ?widths ?max_out ?max_cubes () =
  Arb.make ~shrink:shrink_cover_dc_spec ~print:print_cover_dc_spec
    (cover_dc_spec ?widths ?max_out ?max_cubes ())

(* ------------------------------------------------------------------ *)
(* GNOR planes                                                         *)
(* ------------------------------------------------------------------ *)

type plane_spec = { pl_modes : Cnfet.Gnor.input_mode array array }

let plane_rows s = Array.length s.pl_modes

let plane_cols s = if Array.length s.pl_modes = 0 then 0 else Array.length s.pl_modes.(0)

let plane_of_spec s =
  let rows = plane_rows s and cols = plane_cols s in
  let p = Cnfet.Plane.create ~rows ~cols in
  Array.iteri (fun r modes -> Cnfet.Plane.configure_row p r modes) s.pl_modes;
  p

let gen_mode =
  Gen.frequency
    [
      (2, Gen.return Cnfet.Gnor.Drop);
      (1, Gen.return Cnfet.Gnor.Pass);
      (1, Gen.return Cnfet.Gnor.Invert);
    ]

let plane_spec ?(max_rows = 5) ?(max_cols = 6) () =
  let open Gen in
  let* rows = int_range 1 max_rows in
  let* cols = int_range 1 max_cols in
  let* modes = array_n rows (array_n cols gen_mode) in
  return { pl_modes = modes }

let shrink_mode m = if m = Cnfet.Gnor.Drop then Seq.empty else Seq.return Cnfet.Gnor.Drop

let shrink_plane_spec s =
  Seq.map
    (fun modes -> { pl_modes = modes })
    (Shrink.array_fixed (Shrink.array_fixed shrink_mode) s.pl_modes)

let print_plane_spec s =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat ""
              (Array.to_list
                 (Array.map
                    (function Cnfet.Gnor.Pass -> "p" | Cnfet.Gnor.Invert -> "i" | Cnfet.Gnor.Drop -> ".")
                    row)))
          s.pl_modes))

let arb_plane_spec ?max_rows ?max_cols () =
  Arb.make ~shrink:shrink_plane_spec ~print:print_plane_spec (plane_spec ?max_rows ?max_cols ())

(* ------------------------------------------------------------------ *)
(* NOR networks (cascade input)                                        *)
(* ------------------------------------------------------------------ *)

let network ?(max_pi = 5) ?(max_nodes = 8) () =
  let open Gen in
  let* n_pi = int_range 1 max_pi in
  let* n_nodes = int_range 1 max_nodes in
  let gen_node k =
    let* n_fanin = int_range 1 3 in
    let gen_fanin =
      let* use_pi = if k = 0 then return true else bool in
      let* s =
        if use_pi then map (fun i -> Cnfet.Cascade.Pi i) (int_range 0 (n_pi - 1))
        else map (fun j -> Cnfet.Cascade.Node j) (int_range 0 (k - 1))
      in
      let* inv = bool in
      return (s, inv)
    in
    let* fanins = list_n n_fanin gen_fanin in
    (* Duplicate signals with conflicting flags are unmappable; keep the
       first occurrence of each signal. *)
    let fanins =
      List.rev
        (List.fold_left
           (fun acc (s, inv) ->
             if List.exists (fun (s', _) -> s = s') acc then acc else (s, inv) :: acc)
           [] fanins)
    in
    return fanins
  in
  let rec gen_nodes k acc rng ~size =
    if k = n_nodes then List.rev acc
    else gen_nodes (k + 1) (Gen.run (gen_node k) rng ~size :: acc) rng ~size
  in
  let* nodes = fun rng ~size -> Array.of_list (gen_nodes 0 [] rng ~size) in
  let* n_out = int_range 1 3 in
  let* outputs =
    array_n n_out (map (fun j -> Cnfet.Cascade.Node j) (int_range 0 (n_nodes - 1)))
  in
  return { Cnfet.Cascade.n_pi; nodes; outputs }

let shrink_network (net : Cnfet.Cascade.network) =
  (* Node count and references stay fixed; fanin lists shrink (the empty
     node is the constant 1, still well formed). *)
  Seq.map
    (fun nodes -> { net with Cnfet.Cascade.nodes })
    (Shrink.array_fixed (fun fanins -> Shrink.list fanins) net.Cnfet.Cascade.nodes)

let print_network (net : Cnfet.Cascade.network) =
  let signal = function
    | Cnfet.Cascade.Pi i -> Printf.sprintf "x%d" i
    | Cnfet.Cascade.Node j -> Printf.sprintf "n%d" j
  in
  let node k fanins =
    Printf.sprintf "n%d = NOR(%s)" k
      (String.concat ", "
         (List.map (fun (s, inv) -> (if inv then "!" else "") ^ signal s) fanins))
  in
  Printf.sprintf "n_pi=%d\n%s\noutputs: %s" net.Cnfet.Cascade.n_pi
    (String.concat "\n" (Array.to_list (Array.mapi node net.Cnfet.Cascade.nodes)))
    (String.concat ", " (Array.to_list (Array.map signal net.Cnfet.Cascade.outputs)))

let arb_network ?max_pi ?max_nodes () =
  Arb.make ~shrink:shrink_network ~print:print_network (network ?max_pi ?max_nodes ())

(* ------------------------------------------------------------------ *)
(* Defect maps and repair cases                                        *)
(* ------------------------------------------------------------------ *)

type defect_spec = { df_rows : int; df_cols : int; df_defects : (int * int * Fault.Defect.kind) list }

let defect_map_of_spec s =
  let m = Fault.Defect.perfect ~rows:s.df_rows ~cols:s.df_cols in
  List.iter (fun (r, c, k) -> Fault.Defect.set m ~row:r ~col:c k) s.df_defects;
  m

let defect_spec ~rows ~cols ~rate =
  let open Gen in
  let cell r c =
    let* defective = fun rng ~size:_ -> Util.Rng.bernoulli rng rate in
    if not defective then return None
    else
      let* closed = fun rng ~size:_ -> Util.Rng.bernoulli rng 0.25 in
      return (Some (r, c, if closed then Fault.Defect.Stuck_closed else Fault.Defect.Stuck_open))
  in
  let* cells =
    fun rng ~size ->
      let acc = ref [] in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          match Gen.run (cell r c) rng ~size with
          | Some d -> acc := d :: !acc
          | None -> ()
        done
      done;
      List.rev !acc
  in
  return { df_rows = rows; df_cols = cols; df_defects = cells }

let shrink_defect_spec s =
  Seq.map (fun ds -> { s with df_defects = ds }) (Shrink.list s.df_defects)

let print_defect_spec s =
  Printf.sprintf "%dx%d defects: %s" s.df_rows s.df_cols
    (String.concat "; "
       (List.map
          (fun (r, c, k) ->
            Printf.sprintf "(%d,%d %s)" r c
              (match k with
              | Fault.Defect.Stuck_open -> "open"
              | Fault.Defect.Stuck_closed -> "closed"
              | Fault.Defect.Good -> "good"))
          s.df_defects))

(* A full repair scenario: a function, spare rows, and defect maps for
   both planes of the PLA the function maps onto. *)
type repair_case = {
  rp_cover : cover_spec;
  rp_spares : int;
  rp_and : defect_spec;
  rp_or : defect_spec;
}

let repair_case ?(rate = 0.12) () =
  let open Gen in
  let* cover = cover_spec ~widths:[ 2; 3; 4 ] ~max_out:2 ~min_cubes:1 ~max_cubes:4 () in
  let* spares = int_range 0 2 in
  let products = List.length cover.cv_cubes in
  let rows = products + spares in
  let* and_d = defect_spec ~rows ~cols:cover.cv_n_in ~rate in
  let* or_d = defect_spec ~rows:cover.cv_n_out ~cols:rows ~rate in
  return { rp_cover = cover; rp_spares = spares; rp_and = and_d; rp_or = or_d }

let shrink_repair_case c =
  (* The cover fixes the plane dimensions, so only the defect lists shrink. *)
  Seq.append
    (Seq.map (fun d -> { c with rp_and = d }) (shrink_defect_spec c.rp_and))
    (Seq.map (fun d -> { c with rp_or = d }) (shrink_defect_spec c.rp_or))

let print_repair_case c =
  Printf.sprintf "%s\nspares=%d\nAND plane %s\nOR plane %s" (print_cover_spec c.rp_cover)
    c.rp_spares (print_defect_spec c.rp_and) (print_defect_spec c.rp_or)

let arb_repair_case ?rate () =
  Arb.make ~shrink:shrink_repair_case ~print:print_repair_case (repair_case ?rate ())

(* A programmed physical array for the bit-sliced evaluator: a function
   with random output phases, placed with spare rows, under defect maps
   of that geometry. Widths 0 and 1 exercise the padded AND column, 7 a
   multi-word minterm space. *)
type table_case = {
  tc_cover : cover_spec;
  tc_inverted : bool array;
  tc_spares : int;
  tc_and : defect_spec;
  tc_or : defect_spec;
}

let table_case () =
  let open Gen in
  let* cover = cover_spec ~widths:[ 0; 1; 2; 3; 7 ] ~max_out:3 ~max_cubes:5 () in
  let* inverted = array_n cover.cv_n_out bool in
  let* spares = int_range 0 2 in
  let rows = max 1 (List.length cover.cv_cubes) + spares in
  let* and_d = defect_spec ~rows ~cols:(max 1 cover.cv_n_in) ~rate:0.15 in
  let* or_d = defect_spec ~rows:cover.cv_n_out ~cols:rows ~rate:0.15 in
  return
    { tc_cover = cover; tc_inverted = inverted; tc_spares = spares; tc_and = and_d; tc_or = or_d }

let table_case_physical c =
  let pla = Cnfet.Pla.of_cover ~inverted_outputs:c.tc_inverted (cover_of_spec c.tc_cover) in
  let products = Cnfet.Pla.num_products pla in
  Fault.Repair.apply pla (Array.init products Fun.id) ~rows:(products + c.tc_spares)

let shrink_table_case c =
  Seq.append
    (Seq.map (fun d -> { c with tc_and = d }) (shrink_defect_spec c.tc_and))
    (Seq.map (fun d -> { c with tc_or = d }) (shrink_defect_spec c.tc_or))

let print_table_case c =
  Printf.sprintf "%s\ninverted=%s spares=%d\nAND plane %s\nOR plane %s"
    (print_cover_spec c.tc_cover)
    (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") c.tc_inverted)))
    c.tc_spares (print_defect_spec c.tc_and) (print_defect_spec c.tc_or)

let arb_table_case () = Arb.make ~shrink:shrink_table_case ~print:print_table_case (table_case ())

(* ------------------------------------------------------------------ *)
(* Crossbars                                                           *)
(* ------------------------------------------------------------------ *)

type crossbar_spec = {
  xb_rows : int;
  xb_cols : int;
  xb_conns : (int * int) list;
  xb_driven : (int * bool) list;
}

let crossbar_of_spec s =
  let x = Cnfet.Crossbar.create ~rows:s.xb_rows ~cols:s.xb_cols in
  List.iter (fun (r, c) -> Cnfet.Crossbar.connect x ~row:r ~col:c) s.xb_conns;
  x

let crossbar_spec ?(max_rows = 4) ?(max_cols = 4) () =
  let open Gen in
  let* rows = int_range 1 max_rows in
  let* cols = int_range 1 max_cols in
  let* conns =
    fun rng ~size:_ ->
      let acc = ref [] in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          if Util.Rng.bernoulli rng 0.3 then acc := (r, c) :: !acc
        done
      done;
      List.rev !acc
  in
  let* driven =
    fun rng ~size:_ ->
      let acc = ref [] in
      for r = 0 to rows - 1 do
        if Util.Rng.bool rng then acc := (r, Util.Rng.bool rng) :: !acc
      done;
      List.rev !acc
  in
  return { xb_rows = rows; xb_cols = cols; xb_conns = conns; xb_driven = driven }

let shrink_crossbar_spec s =
  Seq.append
    (Seq.map (fun conns -> { s with xb_conns = conns }) (Shrink.list s.xb_conns))
    (Seq.map (fun driven -> { s with xb_driven = driven }) (Shrink.list s.xb_driven))

let print_crossbar_spec s =
  Printf.sprintf "%dx%d conns: %s; driven: %s" s.xb_rows s.xb_cols
    (String.concat " " (List.map (fun (r, c) -> Printf.sprintf "(%d,%d)" r c) s.xb_conns))
    (String.concat " "
       (List.map (fun (r, v) -> Printf.sprintf "r%d=%d" r (if v then 1 else 0)) s.xb_driven))

let arb_crossbar_spec ?max_rows ?max_cols () =
  Arb.make ~shrink:shrink_crossbar_spec ~print:print_crossbar_spec
    (crossbar_spec ?max_rows ?max_cols ())

(* ------------------------------------------------------------------ *)
(* FPGA designs                                                        *)
(* ------------------------------------------------------------------ *)

type design_case = { dg_seed : int; dg_n_pi : int; dg_n_blocks : int }

let design_of_case c =
  Fpga.Design.random (Util.Rng.create c.dg_seed) ~n_pi:c.dg_n_pi ~n_blocks:c.dg_n_blocks ()

let design_case () =
  let open Gen in
  let* seed = int_range 0 1_000_000 in
  let* n_pi = int_range 1 8 in
  let* n_blocks = int_range 1 40 in
  return { dg_seed = seed; dg_n_pi = n_pi; dg_n_blocks = n_blocks }

let shrink_design_case c =
  Seq.append
    (Seq.filter_map
       (fun n -> if n < 1 then None else Some { c with dg_n_blocks = n })
       (Shrink.int_toward 1 c.dg_n_blocks))
    (Seq.filter_map
       (fun n -> if n < 1 then None else Some { c with dg_n_pi = n })
       (Shrink.int_toward 1 c.dg_n_pi))

let print_design_case c =
  Printf.sprintf "Design.random seed=%d n_pi=%d n_blocks=%d" c.dg_seed c.dg_n_pi c.dg_n_blocks

let arb_design_case () =
  Arb.make ~shrink:shrink_design_case ~print:print_design_case (design_case ())

(* ------------------------------------------------------------------ *)
(* Classifier models                                                   *)
(* ------------------------------------------------------------------ *)

(* Small enough that every property can sweep all 2^n_features minterms
   against the reference evaluator. Weights stay within the signed
   4-bit window Model.make enforces. *)
type classify_case = {
  cl_n_features : int;
  cl_n_classes : int;
  cl_weights : int array array;
  cl_bias : int array;
  cl_seed : int;  (* fault-engine seed for the degraded-device side *)
  cl_rate : float;  (* crosspoint fault rate for the degraded-device side *)
}

let model_of_case c =
  Classify.Model.make ~n_features:c.cl_n_features ~n_classes:c.cl_n_classes ~weight_bits:4
    ~weights:c.cl_weights ~bias:c.cl_bias

let classify_case ?(min_classes = 2) () =
  let open Gen in
  let* nf = int_range 3 5 in
  let* nc = int_range min_classes 4 in
  let* weights = array_n nc (array_n nf (int_range (-7) 7)) in
  let* bias = array_n nc (int_range (-7) 7) in
  let* seed = int_range 0 9999 in
  let* rate = oneofl [ 0.0; 0.02; 0.1 ] in
  return
    {
      cl_n_features = nf;
      cl_n_classes = nc;
      cl_weights = weights;
      cl_bias = bias;
      cl_seed = seed;
      cl_rate = rate;
    }

let shrink_classify_case c =
  (* Dimensions pin the grid; weights and biases shrink toward 0. *)
  Seq.append
    (Seq.map
       (fun w -> { c with cl_weights = w })
       (Shrink.array_fixed (Shrink.array_fixed Shrink.int) c.cl_weights))
    (Seq.map (fun b -> { c with cl_bias = b }) (Shrink.array_fixed Shrink.int c.cl_bias))

let print_classify_case c =
  Printf.sprintf "%d features -> %d classes, seed %d, rate %g\nweights: %s\nbias: %s"
    c.cl_n_features c.cl_n_classes c.cl_seed c.cl_rate
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun row ->
               "[" ^ String.concat " " (Array.to_list (Array.map string_of_int row)) ^ "]")
             c.cl_weights)))
    ("[" ^ String.concat " " (Array.to_list (Array.map string_of_int c.cl_bias)) ^ "]")

let arb_classify_case ?min_classes () =
  Arb.make ~shrink:shrink_classify_case ~print:print_classify_case
    (classify_case ?min_classes ())

(* ------------------------------------------------------------------ *)
(* Helpers shared by the battery                                       *)
(* ------------------------------------------------------------------ *)

let all_minterms n_in =
  List.init (1 lsl n_in) (fun m -> Array.init n_in (fun i -> m land (1 lsl i) <> 0))
