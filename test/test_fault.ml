(* Tests for the fault library: defect maps, defect-aware evaluation,
   repair by matching, Monte-Carlo yield. *)

module G = Cnfet.Gnor
module Plane = Cnfet.Plane
module Pla = Cnfet.Pla
module Cover = Logic.Cover
module Expr = Logic.Expr

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cover_of_exprs n_in exprs = Expr.to_cover_multi ~n_in exprs

(* --- Defect maps ---------------------------------------------------------- *)

let test_defect_perfect () =
  let m = Fault.Defect.perfect ~rows:3 ~cols:4 in
  checki "no defects" 0 (Fault.Defect.defect_count m);
  checki "rows" 3 (Fault.Defect.rows m);
  checki "cols" 4 (Fault.Defect.cols m)

let test_defect_random_rate () =
  let rng = Util.Rng.create 1 in
  let m = Fault.Defect.random rng ~rows:50 ~cols:50 ~rate:0.1 () in
  let n = Fault.Defect.defect_count m in
  (* 2500 cells at 10%: expect ~250, allow wide slack. *)
  checkb "rate respected" true (n > 170 && n < 340)

let test_defect_rate_zero_and_one () =
  let rng = Util.Rng.create 2 in
  let none = Fault.Defect.random rng ~rows:10 ~cols:10 ~rate:0.0 () in
  checki "rate 0" 0 (Fault.Defect.defect_count none);
  let all = Fault.Defect.random rng ~rows:10 ~cols:10 ~rate:1.0 () in
  checki "rate 1" 100 (Fault.Defect.defect_count all)

let test_defect_closed_share () =
  let rng = Util.Rng.create 3 in
  let m = Fault.Defect.random rng ~rows:40 ~cols:40 ~rate:1.0 ~closed_share:0.0 () in
  let closed = ref 0 in
  for r = 0 to 39 do
    if Fault.Defect.row_has_stuck_closed m r then incr closed
  done;
  checki "no stuck-closed when share 0" 0 !closed

let test_defect_compatibility () =
  let m = Fault.Defect.perfect ~rows:1 ~cols:3 in
  let modes = [| G.Pass; G.Drop; G.Invert |] in
  checkb "perfect row compatible" true (Fault.Defect.compatible_and_row m ~row:0 modes);
  Fault.Defect.set m ~row:0 ~col:1 Fault.Defect.Stuck_open;
  checkb "stuck-open under Drop ok" true (Fault.Defect.compatible_and_row m ~row:0 modes);
  Fault.Defect.set m ~row:0 ~col:0 Fault.Defect.Stuck_open;
  checkb "stuck-open under Pass fails" false (Fault.Defect.compatible_and_row m ~row:0 modes);
  Fault.Defect.set m ~row:0 ~col:0 Fault.Defect.Stuck_closed;
  checkb "stuck-closed always fails" false (Fault.Defect.compatible_and_row m ~row:0 modes)

let test_defect_eval () =
  let plane = Plane.create ~rows:2 ~cols:2 in
  Plane.configure_row plane 0 [| G.Pass; G.Drop |];
  Plane.configure_row plane 1 [| G.Drop; G.Pass |];
  let m = Fault.Defect.perfect ~rows:2 ~cols:2 in
  (* No defects: matches plain eval. *)
  let inputs = [| false; true |] in
  Alcotest.check (Alcotest.array Alcotest.bool) "clean eval" (Plane.eval plane inputs)
    (Fault.Defect.eval_with_defects m plane inputs);
  (* Stuck-open on the only active crosspoint of row 0 makes it constant 1. *)
  Fault.Defect.set m ~row:0 ~col:0 Fault.Defect.Stuck_open;
  let out = Fault.Defect.eval_with_defects m plane [| true; true |] in
  checkb "stuck-open row floats high" true out.(0);
  (* Stuck-closed pins row 1 to 0 regardless of inputs. *)
  Fault.Defect.set m ~row:1 ~col:0 Fault.Defect.Stuck_closed;
  let out' = Fault.Defect.eval_with_defects m plane [| false; false |] in
  checkb "stuck-closed row constant 0" false out'.(1)

(* --- Repair -------------------------------------------------------------------- *)

let sample_pla () =
  (* Two products: x0 x1 and x0' x2. *)
  Pla.of_cover (cover_of_exprs 3 [ Expr.(v 0 && v 1 || (not_ (v 0) && v 2)) ])

let perfect_maps pla spares =
  let n_rows = Pla.num_products pla + spares in
  ( Fault.Defect.perfect ~rows:n_rows ~cols:(Plane.cols (Pla.and_plane pla)),
    Fault.Defect.perfect ~rows:(Plane.rows (Pla.or_plane pla)) ~cols:n_rows )

let test_repair_perfect_identity () =
  let pla = sample_pla () in
  let and_d, or_d = perfect_maps pla 0 in
  checkb "identity works on perfect array" true
    (Fault.Repair.identity_works ~and_defects:and_d ~or_defects:or_d pla);
  match Fault.Repair.repair ~and_defects:and_d ~or_defects:or_d pla with
  | Fault.Repair.Repaired _ -> ()
  | Fault.Repair.Unrepairable -> Alcotest.fail "perfect array must repair"

let test_repair_swaps_rows () =
  let pla = sample_pla () in
  let and_d, or_d = perfect_maps pla 0 in
  (* Kill row 0 for product 0 (which needs Pass/Invert at columns 0,1)
     but leave it fine for product 1 (Drop at column 1). *)
  Fault.Defect.set and_d ~row:0 ~col:1 Fault.Defect.Stuck_open;
  (* Product 0 uses column 1 (x1 literal): identity fails... *)
  checkb "identity broken" false
    (Fault.Repair.identity_works ~and_defects:and_d ~or_defects:or_d pla);
  match Fault.Repair.repair ~and_defects:and_d ~or_defects:or_d pla with
  | Fault.Repair.Repaired assignment ->
    checkb "products swapped" true (assignment.(0) <> 0);
    (* Verify the repaired PLA still computes the function. *)
    let f = cover_of_exprs 3 [ Expr.(v 0 && v 1 || (not_ (v 0) && v 2)) ] in
    let fixed = Fault.Repair.apply pla assignment ~rows:(Pla.num_products pla) in
    checkb "repaired PLA correct" true (Pla.verify_against fixed f)
  | Fault.Repair.Unrepairable -> Alcotest.fail "swap should repair"

let test_repair_uses_spares () =
  let pla = sample_pla () in
  let and_d, or_d = perfect_maps pla 1 in
  (* Make both original rows unusable for every product; the spare row 2
     remains perfect, so exactly one product can be saved — unrepairable.
     Then clean row 1 and verify the spare carries the load. *)
  Fault.Defect.set and_d ~row:0 ~col:0 Fault.Defect.Stuck_closed;
  Fault.Defect.set and_d ~row:1 ~col:0 Fault.Defect.Stuck_closed;
  (match Fault.Repair.repair ~spare_rows:1 ~and_defects:and_d ~or_defects:or_d pla with
  | Fault.Repair.Unrepairable -> ()
  | Fault.Repair.Repaired _ -> Alcotest.fail "two dead rows, one spare: unrepairable");
  Fault.Defect.set and_d ~row:1 ~col:0 Fault.Defect.Good;
  match Fault.Repair.repair ~spare_rows:1 ~and_defects:and_d ~or_defects:or_d pla with
  | Fault.Repair.Repaired assignment ->
    checkb "row 0 avoided" true (assignment.(0) <> 0 && assignment.(1) <> 0)
  | Fault.Repair.Unrepairable -> Alcotest.fail "spare should save it"

let test_repair_or_plane_constraints () =
  let pla = sample_pla () in
  let and_d, or_d = perfect_maps pla 0 in
  (* A stuck-closed OR crosspoint conducts on every evaluation and pins its
     output row low: the output is dead, no assignment can help. *)
  Fault.Defect.set or_d ~row:0 ~col:0 Fault.Defect.Stuck_closed;
  (match Fault.Repair.repair ~and_defects:and_d ~or_defects:or_d pla with
  | Fault.Repair.Unrepairable -> ()
  | Fault.Repair.Repaired _ -> Alcotest.fail "stuck-closed kills the output");
  checkb "identity also fails" false
    (Fault.Repair.identity_works ~and_defects:and_d ~or_defects:or_d pla);
  (* Stuck-open at OR(0, row): that row cannot carry any selected product. *)
  let and_d2, or_d2 = perfect_maps pla 0 in
  Fault.Defect.set or_d2 ~row:0 ~col:0 Fault.Defect.Stuck_open;
  Fault.Defect.set or_d2 ~row:0 ~col:1 Fault.Defect.Stuck_open;
  match Fault.Repair.repair ~and_defects:and_d2 ~or_defects:or_d2 pla with
  | Fault.Repair.Unrepairable -> ()
  | Fault.Repair.Repaired _ ->
    Alcotest.fail "both OR crosspoints stuck-open: output 0 unrealizable"

let test_repair_matching_beats_greedy_trap () =
  (* Construct a case where a greedy first-fit fails but augmenting paths
     succeed: product 0 fits rows {0,1}, product 1 fits only row 0. *)
  let f = cover_of_exprs 2 [ Expr.(v 0 || v 1) ] in
  (* products: x0 (uses col 0), x1 (uses col 1) *)
  let pla = Pla.of_cover f in
  let and_d, or_d = perfect_maps pla 0 in
  (* Row 1 rejects product with a literal at col 1. *)
  Fault.Defect.set and_d ~row:1 ~col:1 Fault.Defect.Stuck_open;
  match Fault.Repair.repair ~and_defects:and_d ~or_defects:or_d pla with
  | Fault.Repair.Repaired assignment ->
    (* The x1 product must take row 0; the other moves to row 1. *)
    let x1_product =
      (* find product using column 1 *)
      let p = Pla.and_plane pla in
      if Plane.mode p ~row:0 ~col:1 <> G.Drop then 0 else 1
    in
    checki "x1 product on clean row" 0 assignment.(x1_product)
  | Fault.Repair.Unrepairable -> Alcotest.fail "matching must find the swap"

let test_repair_apply_preserves_function_random () =
  let rng = Util.Rng.create 31 in
  for _ = 1 to 10 do
    let n_in = 2 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out:2 ~n_cubes:(2 + Util.Rng.int rng 5) ~dc_bias:0.4 in
    let pla = Pla.of_minimized f in
    let spares = 2 in
    let rows = Pla.num_products pla + spares in
    (* Random permutation assignment into the enlarged array. *)
    let perm = Array.init rows Fun.id in
    Util.Rng.shuffle rng perm;
    let assignment = Array.sub perm 0 (Pla.num_products pla) in
    let moved = Fault.Repair.apply pla assignment ~rows in
    checkb "moved PLA computes same function" true (Pla.verify_against moved f)
  done

(* --- Column permutation ------------------------------------------------------------ *)

let test_columns_identity_when_clean () =
  let pla = sample_pla () in
  let and_d, or_d = perfect_maps pla 0 in
  let rng = Util.Rng.create 11 in
  match
    Fault.Repair.repair_permuting_inputs rng ~and_defects:and_d ~or_defects:or_d pla
  with
  | Some o ->
    checkb "identity permutation kept" true
      (o.Fault.Repair.column_of_input = Array.init 3 Fun.id)
  | None -> Alcotest.fail "perfect array must repair"

let test_columns_rescue_unrepairable_rows () =
  (* A single product x0·x1' over 3 inputs (input 2 unused): a stuck-open
     under the x0 literal kills every row assignment under the identity
     column order, but moving logical input 0 onto the spare column 2
     repairs it. *)
  let f = cover_of_exprs 3 [ Expr.(v 0 && not_ (v 1)) ] in
  let pla = Cnfet.Pla.of_minimized f in
  checki "one product" 1 (Cnfet.Pla.num_products pla);
  let and_d, or_d = perfect_maps pla 0 in
  Fault.Defect.set and_d ~row:0 ~col:0 Fault.Defect.Stuck_open;
  (match Fault.Repair.repair ~and_defects:and_d ~or_defects:or_d pla with
  | Fault.Repair.Unrepairable -> ()
  | Fault.Repair.Repaired _ -> Alcotest.fail "row matching alone must fail");
  let rng = Util.Rng.create 12 in
  match
    Fault.Repair.repair_permuting_inputs rng ~attempts:500 ~and_defects:and_d ~or_defects:or_d
      pla
  with
  | Some o ->
    checkb "input 0 moved off column 0" true (o.Fault.Repair.column_of_input.(0) <> 0);
    (* Verify through the defects: build the physical PLA and evaluate with
       permuted input delivery. *)
    let rows = Cnfet.Pla.num_products pla in
    let physical = Fault.Repair.apply_with_columns pla o ~rows in
    let ok = ref true in
    for m = 0 to 7 do
      let x = Array.init 3 (fun i -> m land (1 lsl i) <> 0) in
      (* logical input i rides physical column column_of_input.(i) *)
      let y = Array.make 3 false in
      Array.iteri (fun i c -> y.(c) <- x.(i)) o.Fault.Repair.column_of_input;
      let got = Fault.Defect.eval_pla ~and_defects:and_d ~or_defects:or_d physical y in
      if got.(0) <> Util.Bitvec.get (Logic.Cover.eval f x) 0 then ok := false
    done;
    checkb "permuted repair functional through defects" true !ok
  | None -> Alcotest.fail "column permutation must rescue this"

let test_matching_size_reports_partial () =
  let pla = sample_pla () in
  let and_d, or_d = perfect_maps pla 0 in
  let columns = Array.init 3 Fun.id in
  checki "clean array places both products" 2
    (Fault.Repair.matching_size ~and_defects:and_d ~or_defects:or_d ~columns pla);
  (* Kill both rows entirely. *)
  Fault.Defect.set and_d ~row:0 ~col:0 Fault.Defect.Stuck_closed;
  Fault.Defect.set and_d ~row:1 ~col:0 Fault.Defect.Stuck_closed;
  checki "no product placeable" 0
    (Fault.Repair.matching_size ~and_defects:and_d ~or_defects:or_d ~columns pla)

(* --- Xbar (interconnect defect tolerance) ------------------------------------------- *)

let test_xbar_stuck_open_blocks () =
  let m = Fault.Defect.perfect ~rows:2 ~cols:2 in
  Fault.Defect.set m ~row:0 ~col:0 Fault.Defect.Stuck_open;
  checkb "broken crosspoint unusable" false (Fault.Xbar.column_usable m ~row:0 ~col:0);
  checkb "same column other row fine" true (Fault.Xbar.column_usable m ~row:1 ~col:0)

let test_xbar_stuck_closed_free_switch () =
  let m = Fault.Defect.perfect ~rows:2 ~cols:2 in
  Fault.Defect.set m ~row:0 ~col:1 Fault.Defect.Stuck_closed;
  checkb "wanted connection is free" true (Fault.Xbar.column_usable m ~row:0 ~col:1);
  checkb "column dead for other rows" false (Fault.Xbar.column_usable m ~row:1 ~col:1)

let test_xbar_row_shorts () =
  let m = Fault.Defect.perfect ~rows:3 ~cols:3 in
  Fault.Defect.set m ~row:0 ~col:0 Fault.Defect.Stuck_closed;
  Fault.Defect.set m ~row:2 ~col:0 Fault.Defect.Stuck_closed;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "short detected" [ (0, 2) ] (Fault.Xbar.rows_shorted m);
  (* Both shorted rows demanded: unroutable no matter what. *)
  let demands = [ { Fault.Xbar.row = 0; label = 0 }; { Fault.Xbar.row = 2; label = 1 } ] in
  checkb "shorted demanded rows kill routing" true (Fault.Xbar.assign m demands = None);
  (* Only one of them demanded: fine (through another column). *)
  let demands' = [ { Fault.Xbar.row = 0; label = 0 }; { Fault.Xbar.row = 1; label = 1 } ] in
  checkb "single shorted row routable elsewhere" true (Fault.Xbar.assign m demands' <> None)

let test_xbar_assignment_avoids_defects () =
  let m = Fault.Defect.perfect ~rows:2 ~cols:3 in
  Fault.Defect.set m ~row:0 ~col:0 Fault.Defect.Stuck_open;
  Fault.Defect.set m ~row:1 ~col:1 Fault.Defect.Stuck_open;
  let demands = [ { Fault.Xbar.row = 0; label = 0 }; { Fault.Xbar.row = 1; label = 1 } ] in
  checkb "identity blocked" false (Fault.Xbar.identity_feasible m demands);
  (match Fault.Xbar.assign m demands with
  | Some pairs ->
    List.iter
      (fun (d, c) ->
        checkb "assigned column usable" true
          (Fault.Xbar.column_usable m ~row:d.Fault.Xbar.row ~col:c))
      pairs;
    let cols = List.map snd pairs in
    checkb "distinct columns" true (List.sort_uniq compare cols = List.sort compare cols)
  | None -> Alcotest.fail "assignment must exist");
  ()

let test_xbar_yield_ordering () =
  let rng = Util.Rng.create 17 in
  let pts = Fault.Xbar.yield_sweep rng ~trials:200 ~rows:8 ~cols:10 ~demands:8 [ 0.02; 0.08 ] in
  List.iter
    (fun p ->
      checkb "reassignment never hurts" true
        (p.Fault.Xbar.yield_assigned >= p.Fault.Xbar.yield_identity))
    pts;
  match pts with
  | [ a; b ] ->
    checkb "yield falls with rate" true
      (a.Fault.Xbar.yield_assigned >= b.Fault.Xbar.yield_assigned)
  | _ -> Alcotest.fail "two points"

(* --- Atpg --------------------------------------------------------------------------- *)

let test_atpg_fault_list () =
  let pla = sample_pla () in
  let faults = Fault.Atpg.all_faults pla in
  (* Every crosspoint has a stuck-closed fault; stuck-open only on
     programmed ones. *)
  let crosspoints = Cnfet.Pla.crosspoint_count pla in
  let programmed =
    Cnfet.Plane.used_crosspoints (Cnfet.Pla.and_plane pla)
    + Cnfet.Plane.used_crosspoints (Cnfet.Pla.or_plane pla)
  in
  checki "fault count" (crosspoints + programmed) (List.length faults)

let test_atpg_detection_semantics () =
  (* Single product x0·x1: stuck-open on the x0 crosspoint makes the
     product ignore x0 — vector 01 exposes it (good=0, faulty=1). *)
  let pla = Cnfet.Pla.of_cover (cover_of_exprs 2 [ Expr.(v 0 && v 1) ]) in
  let fault =
    { Fault.Atpg.plane = Fault.Atpg.And_plane; row = 0; col = 0; kind = Fault.Defect.Stuck_open }
  in
  checkb "01 exposes the dropped literal" true
    (Fault.Atpg.detects pla fault [| false; true |]);
  checkb "11 does not (both agree at 1)" false
    (Fault.Atpg.detects pla fault [| true; true |])

let test_atpg_complete_and_compact () =
  List.iter
    (fun f ->
      let pla = Cnfet.Pla.of_minimized f in
      let tests, undetectable = Fault.Atpg.generate pla in
      Alcotest.check (Alcotest.float 1e-9) "full coverage" 1.0
        (Fault.Atpg.coverage pla tests);
      (* Never more vectors than the input space; parity-like functions
         legitimately need most of it. *)
      checkb "bounded test set" true (List.length tests <= 1 lsl Cnfet.Pla.num_inputs pla);
      (* undetectable faults really are undetectable *)
      let n_in = Cnfet.Pla.num_inputs pla in
      List.iter
        (fun fault ->
          for m = 0 to (1 lsl n_in) - 1 do
            let v = Array.init n_in (fun i -> m land (1 lsl i) <> 0) in
            checkb "undetectable fault never detected" false
              (Fault.Atpg.detects pla fault v)
          done)
        undetectable)
    [ Mcnc.Generators.mux ~select_bits:2; Mcnc.Generators.gray ~bits:4 ]

let test_atpg_empty_tests_zero_coverage () =
  let pla = Cnfet.Pla.of_minimized (Mcnc.Generators.majority 5) in
  Alcotest.check (Alcotest.float 1e-9) "no vectors, no coverage" 0.0
    (Fault.Atpg.coverage pla [])

let test_atpg_input_limit () =
  checki "documented limit" 14 Fault.Atpg.input_limit;
  let pla_with n_in =
    let rng = Util.Rng.create 9 in
    Cnfet.Pla.of_cover (Cover.random rng ~n_in ~n_out:1 ~n_cubes:3 ~dc_bias:0.8)
  in
  (* At the limit both entry points still enumerate. *)
  let at_limit = pla_with Fault.Atpg.input_limit in
  checkb "coverage works at the limit" true (Fault.Atpg.coverage at_limit [] = 0.0);
  (* One past the limit, both raise the typed exception with the offending
     size in the payload. *)
  let over = pla_with (Fault.Atpg.input_limit + 1) in
  let expect_raise f =
    match f () with
    | _ -> Alcotest.fail "expected Too_many_inputs"
    | exception Fault.Atpg.Too_many_inputs { inputs; limit } ->
      checki "payload inputs" (Fault.Atpg.input_limit + 1) inputs;
      checki "payload limit" Fault.Atpg.input_limit limit
  in
  expect_raise (fun () -> Fault.Atpg.generate over);
  expect_raise (fun () -> Fault.Atpg.coverage over [])

(* A 0-input PLA still has one (padded) AND column: every defect-aware
   evaluator must pad its empty input vector the way [Pla.eval] does. *)
let test_zero_input_pla () =
  let outs = Util.Bitvec.create 1 in
  Util.Bitvec.set outs 0 true;
  let pla = Pla.of_cover (Cover.make ~n_in:0 ~n_out:1 [ Logic.Cube.of_literals [] ~outs ]) in
  let tests, undetectable = Fault.Atpg.generate pla in
  checki "one vector" 1 (List.length tests);
  checkb "the empty vector" true (List.for_all (fun v -> Array.length v = 0) tests);
  Alcotest.check (Alcotest.float 1e-9) "full coverage" 1.0 (Fault.Atpg.coverage pla tests);
  List.iter
    (fun f -> checkb "detected by the reference" true (Fault.Atpg.detects pla f [||]))
    (List.filter (fun f -> not (List.mem f undetectable)) (Fault.Atpg.all_faults pla));
  List.iter
    (fun f -> checkb "undetectable really is" false (Fault.Atpg.detects pla f [||]))
    undetectable;
  let perfect () = Fault.Defect.perfect ~rows:1 ~cols:1 in
  checkb "Map.eval_defective pads" true
    (Classify.Map.eval_defective ~and_defects:(perfect ()) ~or_defects:(perfect ()) pla [||]
    = Pla.eval pla [||]);
  (* The product's row dies; recovery moves it onto the spare row. *)
  let and_defects = Fault.Defect.perfect ~rows:2 ~cols:1 in
  Fault.Defect.set and_defects ~row:0 ~col:0 Fault.Defect.Stuck_closed;
  let or_defects = Fault.Defect.perfect ~rows:1 ~cols:2 in
  match (Runtime.Chaos.recover ~spare_rows:1 ~tests ~and_defects ~or_defects pla).rv_status with
  | `Repaired a -> checki "product on the spare row" 1 a.(0)
  | _ -> Alcotest.fail "a 0-input PLA with a spare row must be repaired"

let golden_path name =
  if Sys.file_exists (Filename.concat "golden" name) then Filename.concat "golden" name
  else Filename.concat "test/golden" name

(* test/golden/atpg.json pins the generated test sets (vectors as minterm
   indices, in generation order) and undetectable-fault counts for the
   classifier's PLA and every generator program of at most 8 inputs. *)
let test_atpg_golden () =
  let ic = open_in_bin (golden_path "atpg.json") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let open Assess.Json in
  let entries =
    match parse text with
    | Ok j -> Option.get (Option.bind (member "atpg" j) to_list)
    | Error _ -> Alcotest.fail "golden/atpg.json does not parse"
  in
  let generators = List.filter (fun (_, c) -> Cover.num_inputs c <= 8) Mcnc.Generators.all in
  let field k e = Option.get (Option.bind (member k e) to_int) in
  let name e = Option.get (Option.bind (member "name" e) to_str) in
  Alcotest.(check (list string))
    "programs" ("classify" :: List.map fst generators) (List.map name entries);
  List.iter
    (fun e ->
      let pla =
        match name e with
        | "classify" -> (Classify.Map.lower Classify.Pretrained.model).Classify.Map.pla
        | n -> Pla.of_cover (List.assoc n generators)
      in
      let want =
        List.map (fun t -> Option.get (to_int t)) (Option.get (Option.bind (member "tests" e) to_list))
      in
      let tests, undetectable = Fault.Atpg.generate pla in
      Alcotest.(check (list int)) (name e ^ " tests") want (List.map Fault.Table.minterm tests);
      checki (name e ^ " undetectable") (field "undetectable" e) (List.length undetectable))
    entries

(* --- Yield ------------------------------------------------------------------------ *)

let test_yield_zero_rate () =
  let pla = sample_pla () in
  let rng = Util.Rng.create 4 in
  let p = Fault.Yield.estimate rng ~trials:20 pla ~defect_rate:0.0 in
  Alcotest.check (Alcotest.float 1e-9) "baseline 1.0" 1.0 p.Fault.Yield.yield_baseline;
  Alcotest.check (Alcotest.float 1e-9) "spares 1.0" 1.0 p.Fault.Yield.yield_spares

let test_yield_ordering () =
  (* remap ≥ baseline, spares ≥ remap (statistically; use enough trials). *)
  let rng = Util.Rng.create 5 in
  let f = cover_of_exprs 4 [ Expr.(v 0 && v 1 || (v 2 && v 3) || (v 0 && v 3)) ] in
  let pla = Pla.of_cover f in
  let p = Fault.Yield.estimate rng ~trials:300 ~spare_rows:3 pla ~defect_rate:0.03 in
  checkb "remap ≥ baseline" true (p.Fault.Yield.yield_remap >= p.Fault.Yield.yield_baseline);
  checkb "spares ≥ remap - eps" true
    (p.Fault.Yield.yield_spares >= p.Fault.Yield.yield_remap -. 0.05);
  checkb "baseline below 1 at 3%" true (p.Fault.Yield.yield_baseline < 1.0)

let test_yield_monotone_in_rate () =
  let rng = Util.Rng.create 6 in
  let pla = sample_pla () in
  let pts = Fault.Yield.sweep rng ~trials:150 pla ~rates:[ 0.01; 0.1; 0.3 ] in
  match pts with
  | [ a; b; c ] ->
    checkb "yield decreasing in defect rate" true
      (a.Fault.Yield.yield_spares >= b.Fault.Yield.yield_spares
      && b.Fault.Yield.yield_spares >= c.Fault.Yield.yield_spares -. 0.05)
  | _ -> Alcotest.fail "three points"

let test_yield_sweep_rate_independence () =
  (* Regression for the historical threading bug: [sweep] used to feed
     one rng serially through the rate list, so inserting a rate shifted
     every later rate's trials. Streams are now keyed by (master draw,
     rate value): a rate's point must be bit-identical whatever company
     it keeps. *)
  let pla = sample_pla () in
  let sweep rates = Fault.Yield.sweep (Util.Rng.create 17) ~trials:60 pla ~rates in
  let alone = sweep [ 0.1 ] in
  let crowded = sweep [ 0.01; 0.05; 0.1; 0.2 ] in
  let point_at rate pts =
    List.find (fun p -> p.Fault.Yield.defect_rate = rate) pts
  in
  checkb "rate point survives list edits" true
    (point_at 0.1 alone = point_at 0.1 crowded);
  let reordered = sweep [ 0.2; 0.1; 0.05; 0.01 ] in
  checkb "rate point survives reordering" true
    (point_at 0.1 crowded = point_at 0.1 reordered)

let test_yield_sweep_with_is_sweep () =
  (* [sweep] must be [sweep_with] plugged with the default trial — same
     seed, same rng consumption order, bit-identical points. *)
  let pla = sample_pla () in
  let direct = Fault.Yield.sweep (Util.Rng.create 9) ~trials:50 pla ~rates:[ 0.02; 0.1 ] in
  let generic =
    Fault.Yield.sweep_with
      ~trial:(fun rng ~defect_rate -> Fault.Yield.trial rng ~spare_rows:2 pla ~defect_rate)
      (Util.Rng.create 9) ~trials:50 ~rates:[ 0.02; 0.1 ] ()
  in
  checkb "sweep = sweep_with(trial)" true (direct = generic)

(* --- Trial maps ----------------------------------------------------------- *)

(* Trial k's cells are keyed k × trial_span + 1 .. k × trial_span + cells,
   so a trial with trial_span cells or more would draw trial k+1's
   streams. The draw must refuse such an array (a 16-feature classifier
   can lower to far more) rather than alias silently. [trials:0] keeps
   the accepted case free of draws. *)
let test_trial_maps_key_span () =
  let engine = Fault.Inject.make ~seed:1 Fault.Inject.nothing in
  let span = Fault.Trial_maps.trial_span in
  let draw ~and_cols =
    Fault.Trial_maps.draw engine ~trials:0 ~rows:1 ~and_cols ~n_out:1 ~max_rate:1.0
  in
  (* one AND row of [and_cols] cells plus one OR cell *)
  ignore (draw ~and_cols:(span - 2));
  (match draw ~and_cols:(span - 1) with
  | _ -> Alcotest.fail "a trial of trial_span cells was accepted"
  | exception Invalid_argument _ -> ());
  match
    Fault.Trial_maps.draw engine ~trials:2 ~rows:(1 lsl 16) ~and_cols:32 ~n_out:4 ~max_rate:1.0
  with
  | _ -> Alcotest.fail "a 16-feature-sized array was accepted"
  | exception Invalid_argument _ -> ()

(* Keys stay where the envelope has always put them: the first draw of
   trial 1 is cell index trial_span + 1. *)
let test_trial_maps_keys () =
  let engine = Fault.Inject.make ~seed:2008 Fault.Inject.nothing in
  let cells =
    Fault.Trial_maps.draw engine ~trials:2 ~rows:3 ~and_cols:4 ~n_out:2 ~max_rate:1.0
  in
  let all = Fault.Inject.make ~seed:2008 { Fault.Inject.nothing with crosspoint_flip = 1.0 } in
  let and_defects, or_defects = Fault.Trial_maps.at_rate cells ~trial:1 ~rate:1.0 in
  checkb "first AND cell of trial 1" true
    (Fault.Defect.kind and_defects ~row:0 ~col:0
    = Fault.Inject.crosspoint_fault_of all ~index:(Fault.Trial_maps.trial_span + 1));
  checkb "last OR cell of trial 1" true
    (Fault.Defect.kind or_defects ~row:1 ~col:2
    = Fault.Inject.crosspoint_fault_of all ~index:(Fault.Trial_maps.trial_span + 18));
  checki "rate 1 breaks every cell" 18
    (Fault.Defect.defect_count and_defects + Fault.Defect.defect_count or_defects);
  let and0, or0 = Fault.Trial_maps.at_rate cells ~trial:0 ~rate:0.0 in
  checki "rate 0 breaks none" 0 (Fault.Defect.defect_count and0 + Fault.Defect.defect_count or0);
  let capped =
    Fault.Trial_maps.draw engine ~trials:1 ~rows:3 ~and_cols:4 ~n_out:2 ~max_rate:0.5
  in
  match Fault.Trial_maps.at_rate capped ~trial:0 ~rate:0.6 with
  | _ -> Alcotest.fail "a rate above max_rate was served"
  | exception Invalid_argument _ -> ()

(* --- typed errors ----------------------------------------------------------- *)

let test_repair_typed_errors () =
  let f = cover_of_exprs 3 [ Expr.(v 0 && v 1 || v 2) ] in
  let pla = Pla.of_cover f in
  let products = Pla.num_products pla in
  let and_cols = Cnfet.Plane.cols (Pla.and_plane pla) in
  let good_and = Fault.Defect.perfect ~rows:(products + 1) ~cols:and_cols in
  let good_or = Fault.Defect.perfect ~rows:(Pla.num_outputs pla) ~cols:(products + 1) in
  (match Fault.Repair.repair ~spare_rows:(-1) ~and_defects:good_and ~or_defects:good_or pla with
  | _ -> Alcotest.fail "negative spares must raise"
  | exception Fault.Repair.No_spare_rows { spare_rows; _ } -> checki "payload" (-1) spare_rows);
  let bad_and = Fault.Defect.perfect ~rows:products ~cols:and_cols in
  (match Fault.Repair.repair ~spare_rows:1 ~and_defects:bad_and ~or_defects:good_or pla with
  | _ -> Alcotest.fail "short AND map must raise"
  | exception Fault.Repair.Shape_mismatch { plane; expected_rows; got_rows; _ } ->
    checkb "names the AND plane" true (plane = Fault.Repair.And_side);
    checki "expected rows" (products + 1) expected_rows;
    checki "got rows" products got_rows);
  let bad_or = Fault.Defect.perfect ~rows:(Pla.num_outputs pla) ~cols:products in
  (match Fault.Repair.repair ~spare_rows:1 ~and_defects:good_and ~or_defects:bad_or pla with
  | _ -> Alcotest.fail "short OR map must raise"
  | exception Fault.Repair.Shape_mismatch { plane; _ } ->
    checkb "names the OR plane" true (plane = Fault.Repair.Or_side));
  (* The registered printer must name the call, not print a blank. *)
  (match Fault.Repair.repair ~spare_rows:1 ~and_defects:bad_and ~or_defects:good_or pla with
  | _ -> ()
  | exception e ->
    let s = Printexc.to_string e in
    checkb "printer names the module" true
      (String.length s > 10 && String.sub s 0 5 = "Fault"))

let test_xbar_typed_errors () =
  let m = Fault.Defect.perfect ~rows:4 ~cols:4 in
  let dup = [ { Fault.Xbar.row = 1; label = 0 }; { Fault.Xbar.row = 1; label = 1 } ] in
  (match Fault.Xbar.assign m dup with
  | _ -> Alcotest.fail "duplicate rows must raise"
  | exception Fault.Xbar.Duplicate_demand_row { row } -> checki "offending row" 1 row);
  let oob = [ { Fault.Xbar.row = 9; label = 0 } ] in
  (match Fault.Xbar.identity_feasible m oob with
  | _ -> Alcotest.fail "out-of-range row must raise"
  | exception Fault.Xbar.Demand_out_of_range { row; rows } ->
    checki "offending row" 9 row;
    checki "map rows" 4 rows);
  match Fault.Xbar.yield_sweep (Util.Rng.create 1) ~rows:3 ~cols:3 ~demands:5 [ 0.1 ] with
  | _ -> Alcotest.fail "oversubscribed sweep must raise"
  | exception Fault.Xbar.Bad_sweep_geometry { demands; rows; cols } ->
    checki "demands" 5 demands;
    checki "rows" 3 rows;
    checki "cols" 3 cols

let test_yield_functional_check () =
  let rng = Util.Rng.create 7 in
  let f = cover_of_exprs 3 [ Expr.(v 0 && v 1 || v 2) ] in
  let pla = Pla.of_cover f in
  (* With no defects, repair trivially succeeds and the function holds. *)
  (match Fault.Yield.functional_check rng pla f ~defect_rate:0.0 ~spare_rows:1 with
  | Some ok -> checkb "clean array functional" true ok
  | None -> Alcotest.fail "clean array must repair");
  (* At a moderate rate, whenever repair claims success the function must
     verify through the defects. *)
  let checked = ref 0 in
  for _ = 1 to 30 do
    match Fault.Yield.functional_check rng pla f ~defect_rate:0.05 ~spare_rows:2 with
    | Some ok ->
      incr checked;
      checkb "repaired really works through defects" true ok
    | None -> ()
  done;
  checkb "some repairs happened" true (!checked > 0)

let () =
  Alcotest.run "fault"
    [
      ( "defect",
        [
          Alcotest.test_case "perfect map" `Quick test_defect_perfect;
          Alcotest.test_case "random rate" `Quick test_defect_random_rate;
          Alcotest.test_case "rate 0 and 1" `Quick test_defect_rate_zero_and_one;
          Alcotest.test_case "closed share" `Quick test_defect_closed_share;
          Alcotest.test_case "row compatibility" `Quick test_defect_compatibility;
          Alcotest.test_case "defective evaluation" `Quick test_defect_eval;
        ] );
      ( "repair",
        [
          Alcotest.test_case "perfect identity" `Quick test_repair_perfect_identity;
          Alcotest.test_case "swaps rows" `Quick test_repair_swaps_rows;
          Alcotest.test_case "uses spares" `Quick test_repair_uses_spares;
          Alcotest.test_case "OR-plane constraints" `Quick test_repair_or_plane_constraints;
          Alcotest.test_case "matching beats greedy trap" `Quick
            test_repair_matching_beats_greedy_trap;
          Alcotest.test_case "apply preserves function" `Quick
            test_repair_apply_preserves_function_random;
        ] );
      ( "columns",
        [
          Alcotest.test_case "identity when clean" `Quick test_columns_identity_when_clean;
          Alcotest.test_case "rescues unrepairable rows" `Quick
            test_columns_rescue_unrepairable_rows;
          Alcotest.test_case "matching size partial" `Quick test_matching_size_reports_partial;
        ] );
      ( "xbar",
        [
          Alcotest.test_case "stuck-open blocks" `Quick test_xbar_stuck_open_blocks;
          Alcotest.test_case "stuck-closed free switch" `Quick
            test_xbar_stuck_closed_free_switch;
          Alcotest.test_case "row shorts" `Quick test_xbar_row_shorts;
          Alcotest.test_case "assignment avoids defects" `Quick
            test_xbar_assignment_avoids_defects;
          Alcotest.test_case "yield ordering" `Quick test_xbar_yield_ordering;
        ] );
      ( "atpg",
        [
          Alcotest.test_case "fault list" `Quick test_atpg_fault_list;
          Alcotest.test_case "detection semantics" `Quick test_atpg_detection_semantics;
          Alcotest.test_case "complete and compact" `Quick test_atpg_complete_and_compact;
          Alcotest.test_case "typed input-limit exception" `Quick test_atpg_input_limit;
          Alcotest.test_case "empty tests zero coverage" `Quick
            test_atpg_empty_tests_zero_coverage;
          Alcotest.test_case "zero-input PLA" `Quick test_zero_input_pla;
          Alcotest.test_case "golden test sets" `Quick test_atpg_golden;
        ] );
      ( "yield",
        [
          Alcotest.test_case "zero rate" `Quick test_yield_zero_rate;
          Alcotest.test_case "ordering baseline/remap/spares" `Quick test_yield_ordering;
          Alcotest.test_case "monotone in rate" `Quick test_yield_monotone_in_rate;
          Alcotest.test_case "functional through defects" `Quick test_yield_functional_check;
          Alcotest.test_case "sweep_with generalizes sweep" `Quick test_yield_sweep_with_is_sweep;
          Alcotest.test_case "rate streams independent of list" `Quick
            test_yield_sweep_rate_independence;
        ] );
      ( "trial maps",
        [
          Alcotest.test_case "key span guard" `Quick test_trial_maps_key_span;
          Alcotest.test_case "keys and rate extremes" `Quick test_trial_maps_keys;
        ] );
      ( "typed errors",
        [
          Alcotest.test_case "repair geometry exceptions" `Quick test_repair_typed_errors;
          Alcotest.test_case "xbar demand exceptions" `Quick test_xbar_typed_errors;
        ] );
    ]
