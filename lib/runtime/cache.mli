(** Compiled-PLA cache with content-hash keys and hit/miss accounting.

    Mapping a cover onto a PLA and building its switch-level netlist are
    pure functions of the programmed content — the cube list plus the
    output-polarity configuration — so they are memoised under an MD5
    digest of exactly that content. Each entry holds the mapped
    {!Cnfet.Pla.t}, one compiled bit-sliced evaluator (per-row column
    lists that skip [Drop] crosspoints, driven 63 input vectors per
    native int; {!eval} is its one-lane case; bit-identical to
    [Pla.eval]) and the lazily-built switch-level netlist. Eviction is
    LRU at a fixed capacity, tracked by an intrusive doubly-linked list
    (touch and evict are O(1)). Thread-safe.

    A front table maps a caller's {e source bytes} (the serve layer's
    program text) straight to an entry, so a repeated request skips the
    parse and the content hash ({!find_source}). Each entry holds at
    most one such alias, removed with the entry, so the front table
    never outgrows the cache. *)

type t

type key = string
(** MD5 digest of the programmed content. *)

exception Corrupt_entry of { key : key }
(** Raised by {!compile} / {!compile_hit} / {!find_source} when the
    entry about to be served (or just stored, under {!Fault.Inject}
    chaos) no longer matches the integrity checksum recorded at compile
    time. The rotten entry is evicted before raising, so a plain retry
    recompiles from source. {!resolve} is the one caller that recovers
    from it: serving code goes through {!resolve} and never sees it. *)

val key_of_cover : ?inverted_outputs:bool array -> Logic.Cover.t -> key
(** The cache key {!compile} uses: digest of [n_in], [n_out], the cube
    list in order, and the polarity configuration. *)

val create : ?capacity:int -> unit -> t
(** LRU capacity defaults to 256 entries. *)

(** {2 Compiled entries} *)

type compiled

val compile : t -> ?inverted_outputs:bool array -> Logic.Cover.t -> compiled
(** Find-or-build the compiled PLA for this programmed cover.
    [inverted_outputs] follows {!Cnfet.Pla.of_cover}'s convention and is
    part of the key. *)

val compile_hit :
  t -> ?source:string -> ?inverted_outputs:bool array -> Logic.Cover.t -> compiled * bool
(** {!compile}, additionally reporting whether the entry was already
    cached ([true] = hit). The flag describes this call alone —
    inferring it by diffing the shared {!hits} counter races with
    concurrent lookups on the same cache. With [source] — bytes that
    determine the cover, such as the text it was parsed from — those
    bytes become the entry's one alias for {!find_source}, replacing
    any alias it had, in the same locked section as the lookup. *)

val find_source : t -> string -> compiled option
(** The entry aliased to exactly these bytes (byte equality, never a
    bare digest), or [None] without counting anything. A found entry
    counts as a hit and is touched and checksum-verified like any
    other hit.
    @raise Corrupt_entry if it rotted; the entry and its alias are
    evicted first, so the caller can fall back to {!compile_hit}. *)

val resolve :
  t ->
  ?source:string ->
  (unit -> Logic.Cover.t) ->
  compiled * [ `Hit | `Miss | `Fallback ]
(** The serving lookup, and the one policy for rotten entries. With
    [source], {!find_source} first; when that misses or its entry
    rotted (and was evicted), the cover is built and taken through
    {!compile_hit}, which recompiles an evicted entry and aliases
    [source] to it. If that store rots as well, the result is a
    standalone compiled entry built from the same mapped PLA and marked
    [`Fallback]: it is never stored, so it cannot rot before use, and
    it evaluates through the same {!eval_block}. So under persistent
    rot a lookup costs one rotten store plus one compile. The cover
    thunk runs only when the front key does not answer; its exceptions
    propagate. *)

val pla : compiled -> Cnfet.Pla.t

val eval : compiled -> bool array -> bool array
(** Compiled functional evaluation of one vector: {!eval_block} on a
    one-lane block. Bit-identical to [Pla.eval] on the underlying PLA.
    Batches should go through {!eval_block} (or {!Batch.eval_batch}),
    which pays the plane sweep once per 63 vectors.
    @raise Invalid_argument if the vector's width differs from the
    compiled PLA's input count. *)

val hw : compiled -> Cnfet.Pla.hw
(** The switch-level realization, built on first use and memoised. *)

(** {2 Bit-sliced (transposed) evaluation}

    The transposed layout: one native [int] per input column, in which
    bit (lane) [v] holds that column's value for vector [v] of the
    block. A block carries up to {!lanes_per_word} = 63 vectors — the
    payload width of an OCaml tagged int — so one AND/NOR word op per
    non-[Drop] crosspoint evaluates all 63 at once. *)

val lanes_per_word : int
(** 63: vectors per block word. *)

type block = { words : int array; lanes : int }
(** [words.(c)] packs input column [c] across [lanes] vectors; bit [v]
    of [words.(c)] is vector [v]'s value. [0 <= lanes <= 63]. Bits at
    and above [lanes] must be zero. *)

val transpose : bool array array -> first:int -> lanes:int -> block
(** [transpose vectors ~first ~lanes] packs
    [vectors.(first .. first+lanes-1)] into a block. All selected
    vectors must share [vectors.(first)]'s width.
    @raise Invalid_argument on a ragged batch or out-of-range slice. *)

val untranspose : int array -> lanes:int -> bool array array
(** Inverse fan-in: unpack per-column (or per-output) words back into
    [lanes] row vectors, in lane order — bit-identical to evaluating
    the vectors one by one. *)

val eval_block : compiled -> block -> int array
(** Evaluate up to 63 vectors at once: returns one word per output,
    lane [v] of word [o] being output [o] of vector [v] — bit-identical
    to [Pla.eval] on each lane, for any input count and any lane count
    from 0 to 63 (a partial block costs the same plane sweep as a full
    one). Bits at and above [block.lanes] are zero in the result.
    @raise Invalid_argument if [Array.length block.words] differs from
    the compiled PLA's input count or [block.lanes] is out of range. *)

(** {2 Accounting} *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int

val corruptions : t -> int
(** Checksum mismatches detected (and evicted) so far. *)

val size : t -> int

val aliases : t -> int
(** Source aliases held by the front table; never more than {!size}. *)

val corrupt_for_test : compiled -> unit
(** Deterministically rot a compiled entry in place {e without}
    updating its stored checksum — the next serve of that entry must
    raise {!Corrupt_entry}. Swaps pass and invert on the first row with
    a crosspoint; only a PLA without any crosspoint flips output 0's
    polarity instead. The same rot {!Fault.Inject}'s [Cache_store] tap
    plants. Chaos/test hook; never call it in production paths. *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val export_metrics : t -> Metrics.t -> unit
(** Register [cache.*] callback gauges on a registry. *)
