(** Deterministic, near-zero-overhead observability.

    A global registry of integer counters, fixed-bucket log2 histograms
    and wall-time span accumulators. Each domain increments a private
    shard (plain [int array], no locking on the hot path); shards are
    summed on read and folded into a retained base when a pool worker
    exits ({!retire_current_domain}), so [jobs = n] produces the same
    merged totals as [jobs = 1] for every metric whose value is a pure
    function of the work done. Metrics whose value depends on scheduling
    (pool steal counts, wall-time spans) are tagged [det = false] and
    excluded from {!det_signature}.

    Disabled (the default; the CLI enables it under [--obs]), every
    increment is a single flag test; enabled, it is an allocation-free
    int-array read-modify-write, safe inside the zero-allocation DTA
    drain. *)

(** Minimal JSON reader/writer (no dependencies) used for the JSONL
    snapshot format and the golden-file tests. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  exception Parse_error of string

  val parse : string -> t
  (** Parses one JSON value. Raises {!Parse_error} on malformed input.
      Non-ASCII [\u] escapes decode to ['?']. *)

  val member : string -> t -> t option
  val to_float : t -> float option
  val to_int : t -> int option
  val to_bool : t -> bool option
  val to_string_opt : t -> string option
end

val enabled : unit -> bool
(** Whether metrics are being recorded. Initially false; the library
    reads no environment variable. *)

val set_enabled : bool -> unit

module Counter : sig
  type t

  val make : ?det:bool -> string -> t
  (** Registers (or finds) the counter [name]. [det] (default [true])
      declares the value a pure function of the work done, independent
      of job count; pass [~det:false] for scheduling-dependent counts.
      Raises [Invalid_argument] if [name] exists with another kind. *)

  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Merged total across all shards. *)
end

module Hist : sig
  type t

  val make : ?det:bool -> string -> t

  val observe : t -> int -> unit
  (** Records [v] in bucket [0] for [v <= 0], else bucket
      [floor(log2 v) + 1] (values in [2^(b-1), 2^b) share bucket [b]),
      saturating at the last bucket. *)

  val bucket_of : int -> int
  val lo_of_bucket : int -> int
  (** Smallest value the bucket covers (0 for bucket 0). *)

  val count : t -> int
  val sum : t -> int

  val buckets : t -> (int * int) list
  (** Non-empty buckets as [(bucket, count)], ascending. *)
end

module Span : sig
  type t

  val make : string -> t
  (** Spans are always [det = false]: wall time is scheduling-dependent
      by nature. The call {e count} of a span is still deterministic,
      but it is excluded from {!det_signature} with the rest of the
      span so the signature stays a pure function of the work. *)

  val time : t -> (unit -> 'a) -> 'a

  val start : unit -> int
  (** A start stamp for {!stop}: a positive wall-clock reading in ns
      when enabled, 0 when disabled. Allocation-free when disabled. *)

  val stop : t -> int -> unit
  (** [stop t t0] adds one call of the wall time since [t0 = start ()].
      A no-op for a stamp taken while disabled, and allocation-free when
      disabled; together with {!start} it times a region without the
      closure {!time} takes. *)

  val add_ns : t -> int -> unit
  val count : t -> int
  val total_ns : t -> int
end

val retire_current_domain : unit -> unit
(** Folds the calling domain's shard into the retained base and drops
    it from the live list. Called by pool workers on exit; safe to call
    repeatedly. *)

val reset : unit -> unit
(** Zeroes every shard and the retained base (registrations remain). *)

type value =
  | Counter_v of int
  | Hist_v of { count : int; sum : int; buckets : (int * int) list }
  | Span_v of { count : int; total_ns : int }

type entry = { entry_name : string; entry_det : bool; entry_value : value }

val snapshot : unit -> entry list
(** All registered metrics with merged values, in registration order.
    Take snapshots only at quiescent points (after a batch completed /
    pool joined); concurrent increments may be missed otherwise. *)

val det_signature : unit -> (string * int list) list
(** The deterministic fingerprint: every [det] counter/histogram
    flattened to int lists, spans and [~det:false] metrics excluded.
    Equal across job counts for identical work. *)

val write_jsonl : ?meta:(string * Json.t) list -> string -> unit
(** Writes a JSONL file: a [{"schema":"sfi-obs/1", ...meta}] header
    line followed by one JSON object per metric. *)
