(** Deterministic pseudo-random number generator (SplitMix64).

    All stochastic parts of the library (synthetic benchmark generation,
    placement annealing, defect injection) draw from this generator so that
    every experiment is reproducible from a single integer seed.

    The state is one unboxed 64-bit word: drawing with {!int}, {!bool},
    {!bernoulli}, {!shuffle} or {!pick} allocates nothing, and {!float}
    allocates only its boxed result. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent child
    generator, useful for giving sub-experiments their own streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

(** {1 Keyed streams}

    A stream named by data rather than by position: hash the key's bytes
    with FNV-1a (64-bit) and seed a generator from the hash. The stream
    then depends on nothing but the key — not on scheduling, job count
    or which other streams were drawn first. A key is fed in place and
    allocates nothing per byte. *)

type key

val key : unit -> key
(** A fresh key: the FNV-1a offset basis, no bytes fed yet. *)

val key_string : key -> string -> unit
(** Feed the string's bytes. *)

val key_int64 : key -> int64 -> unit
(** Feed the word's 8 bytes, least significant first. *)

val key_hash : key -> int64
(** The FNV-1a hash of every byte fed so far. *)

val of_key : key -> t
(** [of_key k] is [create (Int64.to_int (key_hash k))]. *)
