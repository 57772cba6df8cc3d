(** Structural gate-level netlist.

    A circuit is a DAG of primitive gates over nets. Nets are dense integer
    ids; gate creation order is a topological order by construction (a gate
    may only read nets that already exist). Circuits are built imperatively
    through {!Builder} and then frozen into the array-based representation
    used by the logic simulator and the timing engines.

    Every gate carries a {e unit tag} (e.g. ["mul"], ["addsub"],
    ["select"]) recording which datapath unit it belongs to; the virtual
    synthesis sizing pass and the per-unit STA reports are driven by these
    tags. *)

type net = int

module Builder : sig
  type t

  val create : unit -> t

  val set_tag : t -> string -> unit
  (** Sets the unit tag applied to subsequently created gates. The initial
      tag is ["top"]. *)

  val input : t -> string -> net
  (** Declares a named primary input and returns its net. *)

  val input_vec : t -> string -> int -> net array
  (** [input_vec t name w] declares [w] inputs named [name.0 .. name.w-1],
      index 0 being the least-significant bit. *)

  val gate : t -> Cell.kind -> net array -> net
  (** Instantiates a gate reading the given nets (which must already
      exist) and returns its output net. Raises [Invalid_argument] on an
      arity mismatch or an unknown input net. *)

  val const : t -> bool -> net
  (** A constant net. Constants are modelled as dedicated always-stable
      nets, not gates; they contribute no delay. Repeated calls share the
      same two nets. *)

  val output : t -> string -> net -> unit
  (** Declares a named primary output. *)
end

type gate = {
  kind : Cell.kind;
  fan_in : net array;
  out : net;
  tag : int;         (** index into {!tags} *)
}

type t = {
  n_nets : int;
  gates : gate array;              (** in topological order *)
  base_delay : float array;        (** per gate, ps at nominal voltage; the
                                       sizing pass mutates this in place *)
  pis : (string * net) array;      (** primary inputs *)
  pos : (string * net) array;      (** primary outputs (timing endpoints) *)
  const_false : net option;
  const_true : net option;
  driver : int array;              (** net -> driving gate index, or -1 *)
  tags : string array;             (** tag id -> tag name *)
  kind_code : int array;           (** per gate, {!Cell.code} of its kind *)
  gate_out : int array;            (** per gate, its output net *)
  fanin_off : int array;           (** CSR offsets into [fanin_net],
                                       length [gate_count + 1] *)
  fanin_net : int array;           (** concatenated fan-in nets *)
  reader_off : int array;          (** CSR offsets into [reader_gate],
                                       length [n_nets + 1] *)
  reader_gate : int array;         (** concatenated reading gate indices:
                                       net [n]'s readers are entries
                                       [reader_off.(n)] to
                                       [reader_off.(n+1) - 1], in
                                       topological gate order *)
  n_levels : int;                  (** number of topological levels *)
  gate_level : int array;          (** per gate, 1 + max fan-in net level
                                       (primary inputs and constants are
                                       level 0) *)
  sched_gate : int array;          (** every gate exactly once, ordered by
                                       (level, kind, gate index) *)
  seg_off : int array;             (** segment offsets into [sched_gate],
                                       length [segments + 1] *)
  seg_kind : int array;            (** per segment, the {!Cell.code} all
                                       its gates share *)
}
(** The [kind_code ... reader_gate] fields are a flat structure-of-arrays
    mirror of [gates] built by {!freeze}; hot evaluation loops use them
    for cache locality, everything else uses the [gates] records.

    [n_levels ... seg_kind] are the compiled levelized schedule:
    segments are emitted level by level, so when a word-level evaluator
    processes them in order every fan-in of a segment's gates has
    already been written by an earlier segment (or is a primary
    input/constant), and each segment needs just one kind dispatch for
    a tight straight-line loop (see {!Bitsim}). *)

val freeze : Builder.t -> lib:Cell_lib.t -> t
(** Freezes the builder and annotates every gate with its nominal delay
    [intrinsic +. load_slope *. fanout] from [lib]. Primary outputs count
    as one additional (flip-flop) load. Raises [Invalid_argument] if any
    net other than a constant or primary input has no driver, or if a
    declared output net does not exist. *)

val tag_id : t -> string -> int option
(** Looks up a tag name. *)

val scale_tag_delays : t -> tag:string -> factor:float -> unit
(** Multiplies the base delay of every gate carrying [tag] by [factor]
    (the virtual-synthesis sizing primitive). Unknown tags are a no-op. *)

val scale_gate_delays : t -> (int -> float) -> unit
(** [scale_gate_delays t f] multiplies gate [i]'s delay by [f i]; used to
    apply per-gate process variation. *)

val gate_count : t -> int
val count_by_kind : t -> (Cell.kind * int) list
val count_by_tag : t -> (string * int) list
val total_area : t -> lib:Cell_lib.t -> float

val logic_depth : t -> int
(** Maximum number of gates on any input-to-output path. *)
