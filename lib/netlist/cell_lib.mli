(** Timing characterization of the primitive cells (a miniature Liberty).

    Each cell kind carries an intrinsic propagation delay and a linear
    load-dependence coefficient; the delay of a gate instance is
    [intrinsic +. load_slope *. fanout]. Delays are in picoseconds at the
    nominal operating point (0.7 V, typical process, 25 C). {!to_text}
    prints the library as text; the characterization cache key hashes
    that text. *)

type entry = {
  kind : Cell.kind;
  area : float;          (** relative cell area, for report purposes *)
  intrinsic : float;     (** ps *)
  load_slope : float;    (** ps per fanout unit load *)
  vdd_alpha_skew : float;
      (** relative skew of the alpha-power exponent for this cell, modelling
          that not all cells scale identically with supply voltage
          (cf. paper footnote 1). 0. means exactly the nominal curve. *)
}

type t

val default : t
(** The built-in 28 nm-flavoured characterization used by all experiments
    unless overridden. *)

val entry : t -> Cell.kind -> entry

val gate_delay : t -> Cell.kind -> fanout:int -> float
(** Nominal-voltage delay of one gate instance driving [fanout] unit
    loads (at least one load is assumed). *)

val to_text : t -> string
(** One line per cell, [cell NAME area A intrinsic I load L alpha_skew S],
    after a [#] comment line. *)
