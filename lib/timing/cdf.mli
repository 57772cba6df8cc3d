(** Empirical cumulative distributions of arrival times.

    Backed by a sorted sample array; evaluation is a binary search. The
    paper's per-instruction, per-endpoint timing-error probability
    [P_{E,V,I}(f)] is exactly [prob_greater] of such a distribution at the
    (noise-scaled) clock period. *)

type t

val of_samples : float array -> t
(** Copies and sorts. Raises [Invalid_argument] on an empty array. *)

val of_samples_owned : float array -> t
(** Takes ownership of the array and sorts it in place (no copy): for
    callers that build the sample array expressly for the CDF, e.g. the
    characterization kernel's per-endpoint columns. Same validation and
    resulting distribution as {!of_samples}. *)

val n : t -> int

val min_value : t -> float
val max_value : t -> float

val count_leq : t -> float -> int
(** [count_leq t x] is the number of samples [<= x] (binary search; [0]
    for a NaN [x]). *)

val prob_greater : t -> float -> float
(** [prob_greater t x] is the fraction of samples strictly greater
    than [x]. *)

val prob_leq : t -> float -> float
(** [1. -. prob_greater t x]. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [\[0,1\]]: the smallest sample [s] such that
    at least a fraction [q] of samples are [<= s]. *)

val mean : t -> float

val samples : t -> float array
(** The sorted samples (not a copy; treat as read-only). *)
