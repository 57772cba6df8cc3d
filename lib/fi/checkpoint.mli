(** Append-only CRC-validated JSONL record log for campaign checkpoints.

    Each line is one record: [{"p": payload, "crc": "xxxxxxxx"}] where
    [payload = {"v": "sfi-ckpt/1", "key": K, "batch": B, "data": D}] and
    the trailer is the CRC-32 (the {!Sfi_cache.crc32} reflected variant)
    of the canonically serialized payload. [key] is a content
    fingerprint of every input that determines the record's data — the
    {!Sfi_cache.Fingerprint} style — so a checkpoint file can be shared
    between runs and across points of a sweep: a record is only ever
    consumed by a run that would recompute bit-identical data.

    Robustness contract: a record that fails to parse, fails CRC
    validation (torn tail line after a kill, flipped bytes) or carries
    another format version is skipped and counted in the
    [checkpoint.corrupt_rejected] observability counter — the
    corresponding batch is simply recomputed. All checkpoint counters
    are registered [~det:false]: they depend on disk state, so resumed
    and uninterrupted runs keep identical deterministic signatures. *)

val append : path:string -> key:string -> batch:int -> Sfi_obs.Json.t -> unit
(** Appends one record ([O_APPEND], one [write]). I/O errors are
    swallowed — checkpointing accelerates resume, it is never a
    correctness dependency. *)

type index = (string * int, Sfi_obs.Json.t) Hashtbl.t

val load : path:string -> index
(** The file's valid records by (key, batch); a later record wins over
    an earlier one with the same (key, batch). Invalid lines are skipped
    (counted) and a missing file reads as empty. *)

val find : index -> key:string -> batch:int -> Sfi_obs.Json.t option
