(** Core power model (paper §4.4, footnote 2).

    The paper translates frequency-over-scaling headroom into an
    equivalent supply reduction and computes power from two post-layout
    reference points — 10.9 uW/MHz at 0.6 V and 15.0 uW/MHz at 0.7 V —
    with quadratic scaling of active power between them, and core leakage
    of 2% / 3% of total power at the two points. *)

val active_uw_per_mhz : vdd:float -> float
(** Quadratic fit through the paper's two reference points. *)

val leakage_fraction : vdd:float -> float
(** Linear interpolation through (0.6 V, 2%) and (0.7 V, 3%). *)

val normalized : vdd:float -> float
(** Core power at [vdd] relative to the nominal 0.7 V at the same fixed
    frequency (the x-axis of Fig. 7). *)

val equivalent_vdd : Sfi_timing.Vdd_model.t -> headroom_ratio:float -> float
(** [equivalent_vdd m ~headroom_ratio] finds the reduced supply at which
    all delays grow by [headroom_ratio] (>= 1): the voltage the core can
    drop to when it has that much frequency headroom at the nominal
    supply. Solved on the fitted Vdd-delay curve. *)
