(** Small descriptive-statistics helpers for experiment reporting. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0. for fewer than two samples. *)

val median : float list -> float
(** Median (average of middle two for even length); 0. on the empty list. *)

val min_max : float list -> float * float
(** Smallest and largest sample. Raises [Invalid_argument] on empty input. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted q] with [q] a fraction in [\[0,1\]]: the
    element of rank [ceil (q * n)] (clamped to [\[1,n\]]) of the
    ascending array [sorted]; 0. when it is empty. The one percentile
    kernel of the tree: histograms, the sweep report, the bootstrap CIs
    and {!percentile} all read their ranks through it. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank method:
    {!nearest_rank} at [p /. 100.] over the sorted samples. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or 0. when [b = 0.]. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float list -> summary

val pp_summary : Format.formatter -> summary -> unit
