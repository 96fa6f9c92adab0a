(* A latency histogram that stores every observation (the workloads here
   observe thousands of samples, not millions) and answers percentile
   queries with exactly the same rank convention as {!Util.Stats.percentile},
   so metrics dumps agree with offline analysis of the raw samples.

   Thread-safe: a private mutex guards the growable sample buffer, so
   workers on different domains can observe into one histogram. *)

type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
  lock : Mutex.t;
}

let create () =
  {
    samples = Array.make 64 0.0;
    len = 0;
    sum = 0.0;
    lo = infinity;
    hi = neg_infinity;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let observe t x =
  locked t (fun () ->
      if t.len = Array.length t.samples then begin
        let bigger = Array.make (2 * Array.length t.samples) 0.0 in
        Array.blit t.samples 0 bigger 0 t.len;
        t.samples <- bigger
      end;
      t.samples.(t.len) <- x;
      t.len <- t.len + 1;
      t.sum <- t.sum +. x;
      if x < t.lo then t.lo <- x;
      if x > t.hi then t.hi <- x)

let count t = locked t (fun () -> t.len)

let sum t = locked t (fun () -> t.sum)

let mean t = locked t (fun () -> if t.len = 0 then 0.0 else t.sum /. float_of_int t.len)

let snapshot t = locked t (fun () -> Array.sub t.samples 0 t.len)

let percentile t p =
  let a = snapshot t in
  Array.sort Float.compare a;
  Util.Stats.nearest_rank a (p /. 100.)

let percentiles t ps =
  (* One snapshot, one sort, however many ranks — so a percentile family
     (p50/p95/p99) is consistent: every rank is read off the same frozen
     sample set even while other domains keep observing. *)
  let a = snapshot t in
  Array.sort Float.compare a;
  List.map (fun p -> (p, Util.Stats.nearest_rank a (p /. 100.))) ps

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarize t =
  let a = snapshot t in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then { n = 0; mean = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  else
    {
      n;
      mean = Array.fold_left ( +. ) 0.0 a /. float_of_int n;
      min = a.(0);
      max = a.(n - 1);
      p50 = Util.Stats.nearest_rank a 0.50;
      p95 = Util.Stats.nearest_rank a 0.95;
      p99 = Util.Stats.nearest_rank a 0.99;
    }

let reset t =
  locked t (fun () ->
      t.len <- 0;
      t.sum <- 0.0;
      t.lo <- infinity;
      t.hi <- neg_infinity)

let pp_summary fmt s =
  Format.fprintf fmt "n=%d mean=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g" s.n s.mean
    s.min s.p50 s.p95 s.p99 s.max
