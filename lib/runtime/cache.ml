(* Compiled-PLA cache.

   Mapping a cover onto a PLA (espresso-free path: cube -> plane modes)
   and building its switch-level netlist are pure functions of the
   programmed cover — the cube list plus the output-polarity
   configuration. The cache keys on an MD5 digest of that content and
   memoises three artefacts per entry:

     - the mapped [Pla.t];
     - a bit-sliced evaluator: per-row column-index lists driven by
       words in which lane v (bit position v) carries input vector v, so
       one AND/NOR sweep evaluates up to 63 vectors at once
       ([eval_block]; [eval] is its one-lane case), bit-identical to
       [Pla.eval];
     - the switch-level netlist, built lazily on first use.

   Hits, misses and evictions are counted. Eviction is
   least-recently-used at a fixed capacity, tracked by an intrusive
   doubly-linked list threaded through the entries (touch and evict are
   O(1); no full-table scan). All operations are guarded by a mutex so
   batch workers can share one cache.

   In front of the content keys sits a table keyed on a caller's source
   bytes (the serve layer's program text): each entry carries at most
   one such alias, removed with the entry, so a repeat of the same bytes
   reaches its entry without parsing or hashing the cover. *)

module Cover = Logic.Cover
module Cube = Logic.Cube
module Pla = Cnfet.Pla
module Plane = Cnfet.Plane
module Gnor = Cnfet.Gnor

type key = string

let key_of_cover ?inverted_outputs cover =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "i%d;o%d;" (Cover.num_inputs cover) (Cover.num_outputs cover));
  Array.iter
    (fun c ->
      (* The packed input words are canonical for the input part (padding
         bits always zero), so digest them directly instead of rendering
         the cube to text. *)
      Array.iter (fun w -> Buffer.add_int64_le buf (Int64.of_int w)) (Cube.raw_words c);
      Util.Bitvec.iter_set
        (fun o -> Buffer.add_string buf (string_of_int o ^ ","))
        (Cube.outputs c);
      Buffer.add_char buf '\n')
    (Cover.to_array cover);
  Buffer.add_string buf "pol:";
  (match inverted_outputs with
  | None -> Buffer.add_char buf '.'
  | Some a -> Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) a);
  Digest.string (Buffer.contents buf)

(* --- compiled evaluator ------------------------------------------------ *)

(* A GNOR row is the NOR of its contributions: a [Pass] crosspoint
   contributes the input, an [Invert] one its complement, a [Drop] one
   nothing. Row i is therefore high iff no Pass input is 1 and no Invert
   input is 0, so a row compiles to the column indices of its Pass and
   its Invert crosspoints, for any column count. [eval_block] walks them
   with one word op per non-Drop crosspoint, each op covering 63
   vectors. *)
type row = { pass : int array; invert : int array }

let lanes_per_word = 63

type block = { words : int array; lanes : int }

let compile_plane plane =
  let columns mode modes =
    let l = ref [] in
    for c = Array.length modes - 1 downto 0 do
      if modes.(c) = mode then l := c :: !l
    done;
    Array.of_list !l
  in
  Array.init (Plane.rows plane) (fun r ->
      let modes = Plane.row_modes plane r in
      { pass = columns Gnor.Pass modes; invert = columns Gnor.Invert modes })

(* Reusable per-compiled plane-output words, one per AND row and per OR
   row. A single set is parked on the compiled entry and claimed with an
   atomic exchange — concurrent evaluators on other domains simply
   allocate a fresh one, so reuse is race-free without a lock on the hot
   path. *)
type buffers = { products : int array; sums : int array }

type compiled = {
  pla : Pla.t;
  and_rows : row array;
  or_rows : row array;
  inverted : bool array;
  buffers : buffers option Atomic.t;
  hw : Pla.hw Lazy.t;
}

let compile_pla pla =
  {
    pla;
    and_rows = compile_plane (Pla.and_plane pla);
    or_rows = compile_plane (Pla.or_plane pla);
    inverted = Array.init (Pla.num_outputs pla) (Pla.output_inverted pla);
    buffers = Atomic.make None;
    hw = lazy (Pla.build_hw pla);
  }

let pla c = c.pla

let hw c = Lazy.force c.hw

(* --- checksums ---------------------------------------------------------- *)

(* A cheap integer digest over everything [eval_block] reads: both row
   arrays and the output-polarity vector. SplitMix64's finalizer gives
   good avalanche, so any single bit-flip in an index list or a polarity
   changes the digest. Recomputed on every serve and compared with the
   value recorded at compile time — the cache's defence against entries
   rotting in place (injected by [Fault.Inject], or real memory
   corruption in a long-lived server). *)
let mix h x =
  let h = Int64.logxor h (Int64.of_int x) in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 30)) 0xbf58476d1ce4e5b9L in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 27)) 0x94d049bb133111ebL in
  Int64.logxor h (Int64.shift_right_logical h 31)

let checksum_of_compiled c =
  let h = ref 0x9e3779b97f4a7c15L in
  let row r =
    h := mix !h (Array.length r.pass);
    Array.iter (fun x -> h := mix !h x) r.pass;
    h := mix !h (Array.length r.invert);
    Array.iter (fun x -> h := mix !h x) r.invert
  in
  Array.iter row c.and_rows;
  h := mix !h (-1);
  Array.iter row c.or_rows;
  h := mix !h (-2);
  Array.iter (fun b -> h := mix !h (if b then 1 else 0)) c.inverted;
  Int64.to_int !h

(* Deterministic silent corruption for the chaos engine and the tests:
   swap pass and invert on the first row that has a crosspoint, so
   [eval] and [eval_block] keep running but return wrong bits — exactly
   the failure the checksum must catch before serving. The swap keeps
   every index in range, so even a mistaken evaluation of the rotten
   entry stays memory-safe. Only a PLA without a single crosspoint
   flips output 0's polarity instead. *)
let corrupt_compiled c =
  let swap rows =
    match Array.find_index (fun r -> Array.length r.pass + Array.length r.invert > 0) rows with
    | Some i ->
      let r = rows.(i) in
      rows.(i) <- { pass = r.invert; invert = r.pass };
      true
    | None -> false
  in
  if not (swap c.and_rows || swap c.or_rows) then
    if Array.length c.inverted > 0 then c.inverted.(0) <- not c.inverted.(0)

(* --- bit-sliced (transposed) evaluation ----------------------------------- *)

let lane_mask lanes = if lanes >= lanes_per_word then -1 else (1 lsl lanes) - 1

let transpose vectors ~first ~lanes =
  if lanes < 0 || lanes > lanes_per_word then invalid_arg "Cache.transpose: lanes";
  if first < 0 || first + lanes > Array.length vectors then
    invalid_arg "Cache.transpose: vector range";
  let n_in = if lanes = 0 then 0 else Array.length vectors.(first) in
  let words = Array.make n_in 0 in
  for v = 0 to lanes - 1 do
    let row = vectors.(first + v) in
    if Array.length row <> n_in then invalid_arg "Cache.transpose: ragged batch";
    (* Branchless: a bool is already 0/1, so shift it into the lane
       instead of testing it — random input bits would mispredict half
       the time. *)
    for c = 0 to n_in - 1 do
      Array.unsafe_set words c
        (Array.unsafe_get words c lor (Bool.to_int (Array.unsafe_get row c) lsl v))
    done
  done;
  { words; lanes }

let untranspose words ~lanes =
  if lanes < 0 || lanes > lanes_per_word then invalid_arg "Cache.untranspose: lanes";
  let n = Array.length words in
  Array.init lanes (fun v ->
      let bit = 1 lsl v in
      Array.init n (fun c -> words.(c) land bit <> 0))

(* One plane sweep: for each row, AND together the complements of its
   Pass columns and its Invert columns — the GNOR test, 63 vectors per
   word op. Bits above [lanes] carry garbage mid-pipeline; the output
   stage masks them off. *)
(* Column indices are compile-derived and always in range for the plane
   they index (the corruption hook preserves that invariant), so the
   word reads skip the bounds check — it is the hot loop. *)
let eval_plane_into rows words out =
  for r = 0 to Array.length rows - 1 do
    let row = Array.unsafe_get rows r in
    let acc = ref (-1) in
    let pass = row.pass in
    for i = 0 to Array.length pass - 1 do
      acc := !acc land lnot (Array.unsafe_get words (Array.unsafe_get pass i))
    done;
    let invert = row.invert in
    for i = 0 to Array.length invert - 1 do
      acc := !acc land Array.unsafe_get words (Array.unsafe_get invert i)
    done;
    Array.unsafe_set out r !acc
  done

let alloc_buffers c =
  {
    products = Array.make (Array.length c.and_rows) 0;
    sums = Array.make (Array.length c.or_rows) 0;
  }

let eval_block c { words; lanes } =
  let n_in = Pla.num_inputs c.pla in
  if lanes < 0 || lanes > lanes_per_word then invalid_arg "Cache.eval_block: lanes";
  if Array.length words <> n_in then invalid_arg "Cache.eval_block: input width";
  let cols = Plane.cols (Pla.and_plane c.pla) in
  let words =
    (* Degenerate shapes pad the AND plane to at least one column; a
       padded column reads as constant-0 lanes, like [Pla.eval]'s false
       padding. *)
    if cols = n_in then words else Array.append words (Array.make (cols - n_in) 0)
  in
  let b =
    match Atomic.exchange c.buffers None with Some b -> b | None -> alloc_buffers c
  in
  eval_plane_into c.and_rows words b.products;
  eval_plane_into c.or_rows b.products b.sums;
  let m = lane_mask lanes in
  let sums = b.sums in
  let result =
    Array.init (Array.length c.inverted) (fun o ->
        (if c.inverted.(o) then lnot sums.(o) else sums.(o)) land m)
  in
  Atomic.set c.buffers (Some b);
  result

(* One vector is a one-lane block: input [i] packs into bit 0 of word
   [i], and output [o] is bit 0 of result word [o]. *)
let eval c inputs =
  if Array.length inputs <> Pla.num_inputs c.pla then invalid_arg "Cache.eval";
  Array.map
    (fun w -> w land 1 <> 0)
    (eval_block c { words = Array.map Bool.to_int inputs; lanes = 1 })

(* --- the cache proper --------------------------------------------------- *)

(* Entries carry their own LRU links: [prev] points toward the head
   (most recently used), [next] toward the tail (the eviction victim).
   Touch and evict are O(1) pointer splices under the cache lock. *)
type entry = {
  ekey : key;
  compiled : compiled;
  check : int;
  mutable alias : string option;  (* this entry's key in [front], if any *)
  mutable prev : entry option;
  mutable next : entry option;
}

(* Source bytes compare by [String.equal], so a hash collision can never
   serve another program's entry. *)
module Front = Hashtbl.Make (String)

exception Corrupt_entry of { key : key }

let () =
  Printexc.register_printer (function
    | Corrupt_entry { key } ->
      Some (Printf.sprintf "Cache.Corrupt_entry (key %s)" (Digest.to_hex key))
    | _ -> None)

type t = {
  lock : Mutex.t;
  table : (key, entry) Hashtbl.t;
  front : entry Front.t;  (* source bytes -> entry; one alias per entry at most *)
  capacity : int;
  mutable head : entry option;  (* most recently used *)
  mutable tail : entry option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable corruptions : int;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    front = Front.create 64;
    capacity;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    corruptions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let drop_alias t e =
  Option.iter (Front.remove t.front) e.alias;
  e.alias <- None

let remove_entry t e =
  unlink t e;
  Hashtbl.remove t.table e.ekey;
  drop_alias t e

(* Invariant: [front] maps a source only to an entry whose [alias] is
   that source, so [remove_entry] leaves nothing in [front] pointing at
   an evicted entry. *)
let set_alias t e source =
  drop_alias t e;
  Front.replace t.front source e;
  e.alias <- Some source

let evict_lru t =
  match t.tail with
  | Some victim ->
    remove_entry t victim;
    t.evictions <- t.evictions + 1
  | None -> ()

(* Serve-time integrity check: never hand out an entry whose content
   no longer matches the digest recorded at compile time. The rotten
   entry is evicted, with its alias, so a retry recompiles. *)
let verify t e =
  if checksum_of_compiled e.compiled <> e.check then begin
    t.corruptions <- t.corruptions + 1;
    remove_entry t e;
    if Obs.Span.enabled () then Obs.Span.instant "cache.corruption_detected";
    raise (Corrupt_entry { key = e.ekey })
  end

(* A lookup that found [e]: count it, touch its LRU slot, verify it. *)
let hit t e =
  t.hits <- t.hits + 1;
  unlink t e;
  push_front t e;
  verify t e

(* Returns the compiled entry plus whether it was already cached, so
   callers that care (the serve layer reports cache_hit per request)
   get the answer for this call alone instead of racing on the shared
   [hits] counter. [source], when given, becomes the entry's alias in
   the same locked section. *)
let find_or_compile ?source t key build =
  locked t (fun () ->
      let e, cached =
        match Hashtbl.find_opt t.table key with
        | Some e ->
          hit t e;
          (e, true)
        | None ->
          t.misses <- t.misses + 1;
          let compiled = Obs.Span.with_ "cache.compile" build in
          let check = checksum_of_compiled compiled in
          if Hashtbl.length t.table >= t.capacity then evict_lru t;
          let e = { ekey = key; compiled; check; alias = None; prev = None; next = None } in
          Hashtbl.replace t.table key e;
          push_front t e;
          (* Chaos hook: a freshly stored entry may rot immediately. The
             just-built value is the stored value, so verify before
             returning it — the caller must never evaluate through a
             corrupt entry. *)
          (match Fault.Inject.tap (Fault.Inject.Cache_store { key }) with
          | Fault.Inject.Corrupt -> corrupt_compiled compiled
          | _ -> ());
          verify t e;
          (e, false)
      in
      Option.iter (set_alias t e) source;
      (e.compiled, cached))

let find_source t source =
  locked t (fun () ->
      match Front.find_opt t.front source with
      | Some e ->
        hit t e;
        Some e.compiled
      | None -> None)

let compile_hit t ?source ?inverted_outputs cover =
  let key = key_of_cover ?inverted_outputs cover in
  find_or_compile ?source t key (fun () -> compile_pla (Pla.of_cover ?inverted_outputs cover))

let compile t ?inverted_outputs cover = fst (compile_hit t ?inverted_outputs cover)

(* The one rot policy. The front key first, when given; a rotten front
   entry is evicted with its alias, so the cover-keyed lookup after it
   recompiles. If that store rots too, the caller gets a standalone
   entry compiled from the same mapped PLA: it is never stored, so no
   [Cache_store] tap reaches it and nothing can rot it before use. *)
let resolve t ?source cover =
  let front =
    match source with
    | None -> None
    | Some s -> ( try find_source t s with Corrupt_entry _ -> None)
  in
  match front with
  | Some compiled -> (compiled, `Hit)
  | None -> (
    let cover = cover () in
    match compile_hit t ?source cover with
    | compiled, hit -> (compiled, if hit then `Hit else `Miss)
    | exception Corrupt_entry _ -> (compile_pla (Pla.of_cover cover), `Fallback))

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let corruptions t = locked t (fun () -> t.corruptions)
let size t = locked t (fun () -> Hashtbl.length t.table)
let aliases t = locked t (fun () -> Front.length t.front)

let corrupt_for_test = corrupt_compiled

let hit_rate t =
  locked t (fun () ->
      let total = t.hits + t.misses in
      if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total)

let export_metrics t m =
  Metrics.register_gauge m "cache.entries" (fun () -> float_of_int (size t));
  Metrics.register_gauge m "cache.hits" (fun () -> float_of_int (hits t));
  Metrics.register_gauge m "cache.misses" (fun () -> float_of_int (misses t));
  Metrics.register_gauge m "cache.evictions" (fun () -> float_of_int (evictions t));
  Metrics.register_gauge m "cache.corruptions_detected" (fun () -> float_of_int (corruptions t));
  Metrics.register_gauge m "cache.hit_rate" (fun () -> hit_rate t)
