(** Supervised execution over {!Pool}: deadlines, bounded retry with
    decorrelated-jitter backoff, and serial fallback when the pool
    itself is unhealthy.

    The pool gives crash {e isolation} (a poisoned task fails alone);
    the supervisor adds crash {e recovery}: a failed or overdue attempt
    is retried — with a fresh submission, hence a fresh
    {!Fault.Inject} decision stream — after an exponentially growing,
    jittered pause, up to a bounded attempt budget. Time is read through
    an injectable {!Obs.Clock.t} and pauses go through an injectable
    sleep, so every schedule is unit-testable with
    {!Obs.Clock.fixed_step} and no real waiting.

    All recovery activity is counted in {!Metrics}
    ([supervisor.retries], [supervisor.deadline_expiries],
    [supervisor.giveups], [supervisor.serial_fallbacks]) and marked in
    {!Obs} traces. A compiled-cache entry that rots is not the
    supervisor's business: {!Cache.resolve} handles it. *)

(** {1 Backoff} *)

module Backoff : sig
  type policy = { base_s : float; cap_s : float }

  val default : policy
  (** 1 ms base, 250 ms cap. *)

  val next : policy -> Util.Rng.t -> prev_s:float -> float
  (** Decorrelated jitter: [min cap_s (base_s + u * (3 * prev_s - base_s))]
      with [u] uniform in [0,1) — the schedule grows roughly
      exponentially but never synchronizes retries across tasks. Pass
      [prev_s = 0.] for the first delay. *)

  val schedule : policy -> Util.Rng.t -> attempts:int -> float list
  (** The successive delays [next] would produce; for tests and docs. *)
end

(** {1 Errors} *)

exception Deadline_exceeded of { label : string; deadline_s : float; attempt : int }
(** One attempt outlived its per-task deadline. The abandoned task may
    still complete in the pool; its result is discarded. *)

exception
  Retries_exhausted of { label : string; attempts : int; last : exn }
(** Every attempt failed; [last] is the final attempt's exception. *)

(** {1 Configuration} *)

type config = {
  max_attempts : int;  (** total attempts per task, >= 1 *)
  deadline_s : float option;  (** per-attempt deadline; [None] = unbounded *)
  backoff : Backoff.policy;
  poll_s : float;  (** deadline poll interval *)
  crash_tolerance : int;  (** pool worker crashes beyond which new work runs serially *)
}

val default_config : config
(** 3 attempts, no deadline, default backoff, 0.5 ms poll, serial
    fallback after 8 crashes. *)

(** {1 Supervisor} *)

type t

val create :
  ?metrics:Metrics.t ->
  ?clock:Obs.Clock.t ->
  ?sleep:(float -> unit) ->
  ?seed:int ->
  ?config:config ->
  Pool.t ->
  t
(** Wrap a pool. [clock] defaults to {!Obs.Clock.monotonic}, [sleep] to
    [Unix.sleepf], [seed] (jitter stream) to 0. The supervisor never
    owns the pool: shut it down separately. *)

val pool : t -> Pool.t

val config : t -> config

val healthy : t -> bool
(** [false] once the pool has lost more than [crash_tolerance] workers;
    subsequent {!run} calls execute in the submitting domain. *)

val run : ?label:string -> t -> (unit -> 'a) -> 'a
(** Execute the thunk under supervision: submit to the pool (or run
    serially when {!healthy} is false), bound the wait by
    [deadline_s], retry failures up to [max_attempts] with backoff.
    Raises {!Retries_exhausted} when the budget is spent. *)

val run_all : ?label:string -> t -> (unit -> 'a) array -> 'a array
(** Parallel first pass over all thunks, then per-index supervised
    retry of any failure — the supervised analogue of {!Pool.run_all}:
    one bad item never discards its siblings' completed work. *)
