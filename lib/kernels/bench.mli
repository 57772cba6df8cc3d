(** Benchmark kernel descriptor and common machinery.

    Each of the paper's four kernels (median, matrix multiplication in
    8- and 16-bit variants, k-means clustering, Dijkstra) is built by its
    module into this descriptor: an assembled program with the input data
    embedded, the golden output computed by an OCaml reference that mirrors
    the kernel's integer arithmetic exactly, and the output-error metric
    of Table 1. *)

open Sfi_util
open Sfi_sim

type t = {
  name : string;
  bench_type : string;        (** Table 1 "type" row *)
  compute_rating : string;    (** Table 1 compute row: "-", "+", "++" *)
  control_rating : string;
  size_desc : string;         (** e.g. ["129 values"] *)
  program : Sfi_isa.Program.t;
  mem_size : int;
  output_addr : int;          (** byte address of the output region *)
  output_count : int;         (** 32-bit words of output *)
  golden : U32.t array;
  metric_name : string;       (** Table 1 "output error" row *)
  metric : expected:U32.t array -> actual:U32.t array -> float;
      (** output-quality error; by convention a percentage-like metrics
          return values in [0, 100] and MSE returns the raw mean squared
          error *)
}

val fresh_memory : t -> Memory.t
(** A new memory with the program image loaded. *)

val read_output : t -> Memory.t -> U32.t array

val run_fault_free : ?max_cycles:int -> t -> Cpu.stats * U32.t array
(** Runs on {!Cpu.run} without fault injection and returns the stats and
    outputs. The golden outputs must match — checked by the test suite
    and asserted by {!validate}. *)

val add_fingerprint : t -> Sfi_cache.Fingerprint.t -> unit
(** Adds the benchmark's image to a content key: memory geometry, the
    loaded program image and the pipeline penalty constants — every
    input of a fault-free run. The name is deliberately left out, so
    identical images share keys and same-named benchmarks built from
    other inputs do not. The one image fingerprint behind the
    [sfi-refcycles/1] and [sfi-snap/1] cache keys and the
    [sfi-point-ckpt/1] checkpoint key. *)

val validate : t -> Cpu.stats
(** Runs fault-free and raises [Failure] if the outcome is not [Exited]
    or the outputs differ from [golden]. Returns the stats. *)

val format_word_data : U32.t array -> string
(** Renders an array as [.word] directives, 8 per line (assembly-source
    helper for the kernel builders). *)
