type t = {
  arch : Arch.t;
  design : Design.t;
  loc : (int * int) array;
  pi_pads : (int * int) array;
  po_pads : (int * int) array;
}

let arch t = t.arch
let design t = t.design

let block_loc t b = t.loc.(b)
let pi_loc t i = t.pi_pads.(i)
let po_loc t o = t.po_pads.(o)

let source_loc t = function
  | Design.Pi i -> t.pi_pads.(i)
  | Design.Block b -> t.loc.(b)

type connection = { src : Design.source; dst_loc : int * int; dst_desc : string }

let connections t =
  let conns = ref [] in
  Array.iteri
    (fun b (blk : Design.block) ->
      Array.iteri
        (fun k s ->
          conns :=
            { src = s; dst_loc = t.loc.(b); dst_desc = Printf.sprintf "b%d.in%d" b k }
            :: !conns)
        blk.Design.fanin)
    t.design.Design.blocks;
  Array.iteri
    (fun o s ->
      conns := { src = s; dst_loc = t.po_pads.(o); dst_desc = Printf.sprintf "po%d" o } :: !conns)
    t.design.Design.pos;
  List.rev !conns

let manhattan (x0, y0) (x1, y1) = abs (x0 - x1) + abs (y0 - y1)

let total_wirelength t =
  List.fold_left (fun acc c -> acc + manhattan (source_loc t c.src) c.dst_loc) 0 (connections t)

(* Pads sit on a ring just outside the grid, spread uniformly. *)
let ring_pads grid n offset =
  let perimeter = 4 * (grid + 1) in
  Array.init n (fun k ->
      let p = (offset + (k * perimeter / max 1 n)) mod perimeter in
      let side = p / (grid + 1) and along = p mod (grid + 1) in
      match side with
      | 0 -> (along, -1)
      | 1 -> (grid, along)
      | 2 -> (grid - along, grid)
      | _ -> (-1, grid - along))

(* The annealer works on flat arrays: block coordinates in [lx]/[ly], site
   occupancy in an int array indexed [x + y·grid] ([-1] when empty), and
   each block's incident connections in CSR form ([first.(b)] up to
   [first.(b+1)]), every entry holding its weight and its far endpoint —
   a block index [>= 0], or [-1 - p] for pad [p] of [pad_x]/[pad_y] (PIs,
   then POs). A move costs its old and new lengths in one pass and writes
   nothing unless accepted.

   The summation order is part of the result: a block's sum is a left fold
   from [0.0] over its connections, most recently added first, and a move
   compares [Σb +. Σo] (moving block, then displaced block) before and
   after. Weighted costs round differently in any other order, which moves
   accept decisions, rng draws and placements; test/golden/fpga_flow.json
   pins them. *)
type net = {
  first : int array;
  far : int array;
  w : float array;
  pad_x : int array;
  pad_y : int array;
  lx : int array;
  ly : int array;
  sums : float array;
      (** [\[| before; after |\]] of the last {!move_lengths}, returned
          through an array so the floats stay unboxed *)
}

(* The weighted lengths of block [m]'s connections before and after a
   move that takes [m] to ([mx], [my]) and block [other] to ([ox], [oy]).
   [other] is -1 when [m] moves to a free site; it is only compared with
   block endpoints, whose codes are never negative. *)
let move_lengths n m mx my other ox oy =
  let x0 = n.lx.(m) and y0 = n.ly.(m) in
  let before = ref 0.0 and after = ref 0.0 in
  for k = n.first.(m) to n.first.(m + 1) - 1 do
    let f = n.far.(k) and w = n.w.(k) in
    if f < 0 then begin
      let px = n.pad_x.(-1 - f) and py = n.pad_y.(-1 - f) in
      before := !before +. (w *. float_of_int (abs (x0 - px) + abs (y0 - py)));
      after := !after +. (w *. float_of_int (abs (mx - px) + abs (my - py)))
    end
    else begin
      let fx = n.lx.(f) and fy = n.ly.(f) in
      let nx = if f = other then ox else fx and ny = if f = other then oy else fy in
      before := !before +. (w *. float_of_int (abs (x0 - fx) + abs (y0 - fy)));
      after := !after +. (w *. float_of_int (abs (mx - nx) + abs (my - ny)))
    end
  done;
  n.sums.(0) <- !before;
  n.sums.(1) <- !after

let place ?weights rng (a : Arch.t) (d : Design.t) =
  let n_blocks = Array.length d.Design.blocks in
  let grid = a.Arch.grid in
  let sites = Arch.sites a in
  if n_blocks > sites then invalid_arg "Place.place: design larger than device";
  let n_pi = d.Design.n_pi in
  let pi_pads = ring_pads grid n_pi 0 in
  let po_pads = ring_pads grid (Array.length d.Design.pos) (2 * (grid + 1)) in
  let n_conns = Design.connection_count d in
  let weight =
    match weights with
    | None -> Array.make n_conns 1.0
    | Some w ->
      if Array.length w <> n_conns then invalid_arg "Place.place: weights length";
      w
  in
  (* Random initial assignment of blocks to distinct sites. *)
  let site_of = Array.init sites Fun.id in
  Util.Rng.shuffle rng site_of;
  let occ = Array.make sites (-1) in
  for b = 0 to n_blocks - 1 do
    occ.(site_of.(b)) <- b
  done;
  (* Connections in {!connections} order (block fanins in block order, then
     POs), so external weights line up: [iter_conns f] calls [f id src dst]
     with endpoints coded as in [far]. *)
  let code = function Design.Pi i -> -1 - i | Design.Block b -> b in
  let iter_conns f =
    let id = ref 0 in
    let conn s e =
      f !id (code s) e;
      incr id
    in
    Array.iteri
      (fun b (blk : Design.block) -> Array.iter (fun s -> conn s b) blk.Design.fanin)
      d.Design.blocks;
    Array.iteri (fun o s -> conn s (-1 - n_pi - o)) d.Design.pos
  in
  let first = Array.make (n_blocks + 1) 0 in
  let pads = Array.append pi_pads po_pads in
  iter_conns (fun _ s e ->
      if s >= 0 then first.(s + 1) <- first.(s + 1) + 1;
      if e >= 0 then first.(e + 1) <- first.(e + 1) + 1);
  for b = 1 to n_blocks do
    first.(b) <- first.(b) + first.(b - 1)
  done;
  let n =
    {
      first;
      far = Array.make first.(n_blocks) 0;
      w = Array.make first.(n_blocks) 0.0;
      pad_x = Array.map fst pads;
      pad_y = Array.map snd pads;
      lx = Array.init n_blocks (fun b -> site_of.(b) mod grid);
      ly = Array.init n_blocks (fun b -> site_of.(b) / grid);
      sums = [| 0.0; 0.0 |];
    }
  in
  (* Fill each block's slice from its end, so the last connection added
     comes first (the summation order above). *)
  let fill = Array.sub first 1 n_blocks in
  let add b far w =
    let k = fill.(b) - 1 in
    fill.(b) <- k;
    n.far.(k) <- far;
    n.w.(k) <- w
  in
  iter_conns (fun id s e ->
      if s >= 0 then add s e weight.(id);
      if e >= 0 then add e s weight.(id));
  (* Annealing: swap a block with a random site (occupied or free). *)
  let moves = 400 * sites in
  let temp = ref (2.0 +. (0.02 *. float_of_int n_blocks)) in
  let cooling = exp (log (0.005 /. !temp) /. float_of_int moves) in
  if n_blocks > 0 then
    for _ = 1 to moves do
      let b = Util.Rng.int rng n_blocks in
      let sx = Util.Rng.int rng grid and sy = Util.Rng.int rng grid in
      let bx = n.lx.(b) and by = n.ly.(b) in
      if sx <> bx || sy <> by then begin
        (* [o]: the block at the target, displaced to [b]'s site, or -1 when
           the target is free. *)
        let o = occ.(sx + (sy * grid)) in
        move_lengths n b sx sy o bx by;
        let b_before = n.sums.(0) and b_after = n.sums.(1) in
        let o_before =
          if o >= 0 then begin
            move_lengths n o bx by b sx sy;
            n.sums.(0)
          end
          else 0.0
        in
        let o_after = if o >= 0 then n.sums.(1) else 0.0 in
        let delta = (b_after +. o_after) -. (b_before +. o_before) in
        let accept = delta <= 0.0 || Util.Rng.float rng 1.0 < exp (-.delta /. !temp) in
        if accept then begin
          n.lx.(b) <- sx;
          n.ly.(b) <- sy;
          occ.(sx + (sy * grid)) <- b;
          occ.(bx + (by * grid)) <- o;
          if o >= 0 then begin
            n.lx.(o) <- bx;
            n.ly.(o) <- by
          end
        end
      end;
      temp := !temp *. cooling
    done;
  let loc = Array.init n_blocks (fun b -> (n.lx.(b), n.ly.(b))) in
  { arch = a; design = d; loc; pi_pads; po_pads }
