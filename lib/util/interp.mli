(** Piecewise-linear interpolation and least-squares fitting over sampled
    curves, used for the Vdd-delay model and for the error-vs-power fits. *)

type t
(** A piecewise-linear curve through a set of (x, y) anchor points. *)

val of_points : (float * float) list -> t
(** [of_points pts] builds a curve. Points are sorted by [x]; duplicate [x]
    values raise [Invalid_argument], as does an empty list. *)

val eval : t -> float -> float
(** [eval t x] interpolates linearly between the two surrounding anchors.
    Outside the anchor range the nearest segment is extrapolated. *)

val slope_at : t -> float -> float
(** Local slope of the segment containing [x] (nearest segment outside the
    range). *)

val inverse_eval : t -> float -> float
(** [inverse_eval t y] solves [eval t x = y] for a strictly monotone curve
    (in either direction). Raises [Invalid_argument] if the curve is not
    strictly monotone in [y]. Outside the range the boundary segment is
    extrapolated. *)

val linear_fit : (float * float) list -> float * float
(** [linear_fit pts] returns [(a, b)] minimising least squares for
    [y = a *. x +. b]. Requires at least two points with distinct [x]. *)
