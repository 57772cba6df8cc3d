module Json = Sfi_obs.Json

(* All three counters depend on what happens to be on disk, not on the
   requested work, so they are excluded from the determinism signature —
   an interrupted-and-resumed run and an uninterrupted one report the
   same deterministic counters (see Sfi_cache for the same contract). *)
let obs_written = Sfi_obs.Counter.make ~det:false "checkpoint.records_written"

let obs_loaded = Sfi_obs.Counter.make ~det:false "checkpoint.records_loaded"

let obs_corrupt = Sfi_obs.Counter.make ~det:false "checkpoint.corrupt_rejected"

let version = "sfi-ckpt/1"

let crc_hex s = Printf.sprintf "%08x" (Sfi_cache.crc32 s)

let encode ~key ~batch data =
  let payload =
    Json.Obj
      [
        ("v", Json.String version);
        ("key", Json.String key);
        ("batch", Json.Int batch);
        ("data", data);
      ]
  in
  let body = Json.to_string payload in
  Json.to_string (Json.Obj [ ("p", payload); ("crc", Json.String (crc_hex body)) ])

(* A record survives only if it parses, its CRC trailer matches the
   re-serialized payload (the writer and reader share one canonical JSON
   printer, so the bytes are reproducible), and it carries the current
   format version. Anything else — torn tail line from a kill, flipped
   bytes, stale format — is rejected and counted, never trusted. *)
let decode line =
  match Json.parse line with
  | exception Json.Parse_error _ -> None
  | v -> (
    match (Json.member "p" v, Option.bind (Json.member "crc" v) Json.to_string_opt) with
    | Some payload, Some crc when crc_hex (Json.to_string payload) = crc -> (
      match
        ( Option.bind (Json.member "v" payload) Json.to_string_opt,
          Option.bind (Json.member "key" payload) Json.to_string_opt,
          Option.bind (Json.member "batch" payload) Json.to_int,
          Json.member "data" payload )
      with
      | Some v, Some key, Some batch, Some data when v = version && batch >= 0 ->
        Some (key, batch, data)
      | _ -> None)
    | _ -> None)

let append ~path ~key ~batch data =
  let line = encode ~key ~batch data ^ "\n" in
  (* O_APPEND keeps concurrent writers line-atomic in practice; a torn
     line from a crash mid-write fails CRC validation on the next read.
     I/O errors are swallowed: the checkpoint accelerates resume, it is
     never a correctness dependency. *)
  match open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path with
  | exception Sys_error _ -> ()
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc line;
        Sfi_obs.Counter.incr obs_written)

let read ~path =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | "" -> loop acc
          | line -> (
            match decode line with
            | Some rec_ ->
              Sfi_obs.Counter.incr obs_loaded;
              loop (rec_ :: acc)
            | None ->
              Sfi_obs.Counter.incr obs_corrupt;
              loop acc)
        in
        loop [])

type index = (string * int, Json.t) Hashtbl.t

let load ~path =
  let tbl : index = Hashtbl.create 64 in
  (* Later duplicates win: a resume may legitimately re-append a batch
     that an earlier corrupt record forced it to recompute. *)
  List.iter (fun (key, batch, data) -> Hashtbl.replace tbl (key, batch) data) (read ~path);
  tbl

let find tbl ~key ~batch = Hashtbl.find_opt tbl (key, batch)
