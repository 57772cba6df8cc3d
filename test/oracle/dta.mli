(** Dynamic timing analysis: event-driven, delay-annotated gate-level
    simulation.

    Unlike STA, which reports the structural worst case, DTA simulates the
    circuit cycle by cycle with its annotated gate delays and records when
    each net {e actually} settles given the applied operands — the "dynamic
    timing slack" of the paper's reference [14]. A net that does not toggle
    in a cycle settles at t = 0 (it cannot cause a timing violation).

    The simulator uses the standard event-driven algorithm with
    evaluate-at-pop semantics, which gives inertial-delay behaviour:
    pulses shorter than a gate's delay are filtered. This keeps settle
    times physical and the event count bounded.

    The event kernel is allocation-free in steady state: event times are
    held as order-preserving integer encodings of their float values (see
    {!Min_heap}), per-cycle state is invalidated with generation
    stamps rather than O(n_nets) clears, and same-time evaluations of a
    gate whose several inputs toggle together are coalesced into one
    event. Settle times are bit-identical to the straightforward
    float-keyed implementation. *)

open Sfi_netlist
open Sfi_timing

type t

val create :
  ?vdd:float -> ?vdd_model:Vdd_model.t -> ?lib:Cell_lib.t -> Circuit.t -> t
(** Builds a simulator whose gate delays are the circuit's base delays
    derated to [vdd] (default nominal 0.7 V). The circuit is initialised
    stable with all primary inputs low. *)

val set_input : t -> Circuit.net -> bool -> unit
(** Stages a primary-input value for the next {!cycle}. *)

val set_input_vec : t -> Circuit.net array -> int -> unit

val cycle : t -> unit
(** Launches the staged input values at t = 0 and propagates events until
    quiescence. After the call, {!settle_time} reports per-net settle
    times for this cycle. *)

val value : t -> Circuit.net -> bool
(** Current logical value of a net. *)

val read_vec : t -> Circuit.net array -> int

val settle_time : t -> Circuit.net -> float
(** Time (ps) of the net's last transition during the most recent
    {!cycle}; [0.] if it did not toggle. *)

val settles_count : t -> int
(** Events that changed a net's value since creation. *)

val coalesced_count : t -> int
(** Same-instant gate evaluations deduplicated by the scheduling stamp
    since creation. *)

val check_against : t -> Logic_sim.t -> Circuit.net array -> bool
(** Debug helper: [true] when the DTA net values of the given nets agree
    with a zero-delay simulation that was driven with the same inputs. *)
