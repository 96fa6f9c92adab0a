(* The 64-bit state lives unboxed in an 8-byte buffer: a draw reads and
   writes it with [get/set_int64_ne], so the int64 arithmetic stays in
   registers and [int]/[bool]/[bernoulli] allocate nothing. A record with
   a mutable [int64] field would box a fresh 3-word value on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 finalizer: Stafford's mix13 variant. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (next t)

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value stays non-negative in OCaml's native int. *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

(* --- keyed streams ------------------------------------------------------- *)

(* FNV-1a (64-bit), its running hash held unboxed like the generator
   state. *)
type key = Bytes.t

let fnv_prime = 0x100000001b3L

let key () = of_state 0xcbf29ce484222325L

let key_string k s =
  let h = ref (Bytes.get_int64_ne k 0) in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  Bytes.set_int64_ne k 0 !h

let key_int64 k w =
  let h = ref (Bytes.get_int64_ne k 0) in
  for b = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical w (8 * b)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) fnv_prime
  done;
  Bytes.set_int64_ne k 0 !h

let key_hash k = Bytes.get_int64_ne k 0

let of_key k = create (Int64.to_int (key_hash k))
