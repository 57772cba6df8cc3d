(* Bump when the entry encoding or any cached value's layout changes;
   entries written by other versions are rejected on load. *)
let schema_version = 1

(* ---------- configuration ---------- *)

(* The active cache directory; [None] disables caching. The library
   reads no environment: the CLI resolves --cache-dir (or
   SFI_CACHE_DIR through it) and sets it before any work. *)
let current : string option Atomic.t = Atomic.make None

let set_dir d = Atomic.set current d

let enabled () = Atomic.get current <> None

(* ---------- observability ---------- *)

(* All ~det:false: hit/miss/corruption counts depend on the state of the
   cache directory, not on the requested work, so they must not enter
   the deterministic signature (a warm rerun must fingerprint-match its
   cold run). *)
let obs_hits = Sfi_obs.Counter.make ~det:false "cache.hits"

let obs_misses = Sfi_obs.Counter.make ~det:false "cache.misses"

let obs_stores = Sfi_obs.Counter.make ~det:false "cache.stores"

let obs_corrupt = Sfi_obs.Counter.make ~det:false "cache.corrupt_rejected"

let obs_evictions = Sfi_obs.Counter.make ~det:false "cache.evictions"

(* ---------- CRC-32 integrity trailer ---------- *)

(* Table-driven version of the bitwise reflected CRC-32 the crc32
   benchmark kernel runs on the simulated core (Crc32.reference); the
   test suite pins the two against each other. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 1 to 8 do
           c := if !c land 1 = 1 then 0xEDB8_8320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFF_FFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFF_FFFF

(* ---------- fingerprints ---------- *)

module Fingerprint = struct
  type t = { mutable h : int64 }

  let fnv_offset = 0xCBF29CE484222325L

  let fnv_prime = 0x100000001B3L

  let add_byte t b =
    t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (b land 0xFF))) fnv_prime

  let add_int64 t v =
    for i = 0 to 7 do
      add_byte t (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

  let add_int t v = add_int64 t (Int64.of_int v)

  let add_float t v = add_int64 t (Int64.bits_of_float v)

  let add_string t s =
    add_int t (String.length s);
    String.iter (fun c -> add_byte t (Char.code c)) s

  let add_int_array t a =
    add_int t (Array.length a);
    Array.iter (add_int t) a

  let add_float_array t a =
    add_int t (Array.length a);
    Array.iter (add_float t) a

  let create label =
    let t = { h = fnv_offset } in
    add_string t label;
    t

  let hex t = Printf.sprintf "%016Lx" t.h
end

(* ---------- entry encoding ---------- *)

(* Layout (all integers big-endian u32):
     magic "SFIC" | version | ns_len ns | key_len key | pay_len payload | crc
   The CRC covers every byte before it. *)
let magic = "SFIC"

let add_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode_entry ~namespace ~key payload =
  let buf = Buffer.create (String.length payload + 64) in
  Buffer.add_string buf magic;
  add_u32 buf schema_version;
  add_u32 buf (String.length namespace);
  Buffer.add_string buf namespace;
  add_u32 buf (String.length key);
  Buffer.add_string buf key;
  add_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  let body = Buffer.contents buf in
  let crc = Buffer.create 4 in
  add_u32 crc (crc32 body);
  body ^ Buffer.contents crc

(* Structural parse shared by [load] and [scan]: returns the entry's
   own (namespace, key, payload) or the first validation failure. Field
   reads are bounds-checked before every access so truncation at any
   byte is a clean [Error]. *)
let parse_entry content =
  let len = String.length content in
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let need off n what = if off + n > len then Error ("truncated " ^ what) else Ok () in
  let* () = need 0 8 "header" in
  if String.sub content 0 4 <> magic then Error "bad magic"
  else
    let version = get_u32 content 4 in
    if version <> schema_version then
      Error (Printf.sprintf "schema version %d (want %d)" version schema_version)
    else
      let* () = need 8 4 "namespace length" in
      let ns_len = get_u32 content 8 in
      let* () = need 12 ns_len "namespace" in
      let namespace = String.sub content 12 ns_len in
      let koff = 12 + ns_len in
      let* () = need koff 4 "key length" in
      let key_len = get_u32 content koff in
      let* () = need (koff + 4) key_len "key" in
      let key = String.sub content (koff + 4) key_len in
      let poff = koff + 4 + key_len in
      let* () = need poff 4 "payload length" in
      let pay_len = get_u32 content poff in
      let* () = need (poff + 4) pay_len "payload" in
      let payload = String.sub content (poff + 4) pay_len in
      let crc_off = poff + 4 + pay_len in
      let* () = need crc_off 4 "CRC trailer" in
      if crc_off + 4 <> len then Error "trailing garbage"
      else if get_u32 content crc_off <> crc32 (String.sub content 0 crc_off) then
        Error "CRC mismatch"
      else Ok (namespace, key, payload)

let decode_entry ~namespace ~key content =
  match parse_entry content with
  | Error _ as e -> e
  | Ok (ns, k, payload) ->
    if ns <> namespace then Error "namespace mismatch"
    else if k <> key then Error "key mismatch"
    else Ok payload

(* ---------- file I/O ---------- *)

let entry_file ~namespace ~key = namespace ^ "-" ^ key ^ ".sfic"

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception End_of_file -> None)

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let store ~namespace ~key v =
  match Atomic.get current with
  | None -> ()
  | Some d ->
    let payload = Marshal.to_string v [] in
    let content = encode_entry ~namespace ~key payload in
    let final = Filename.concat d (entry_file ~namespace ~key) in
    (* Temp file in the destination directory so the rename is atomic
       (same filesystem); the pid suffix keeps concurrent processes off
       each other's temp files. *)
    let tmp = Printf.sprintf "%s.tmp.%d" final (Unix.getpid ()) in
    (try
       mkdirs d;
       let oc = open_out_bin tmp in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc content);
       Sys.rename tmp final;
       Sfi_obs.Counter.incr obs_stores
     with Sys_error _ | Unix.Unix_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

let reject_corrupt path =
  Sfi_obs.Counter.incr obs_corrupt;
  try Sys.remove path with Sys_error _ -> ()

(* The decoded entry, or [None] when it is absent or fails validation
   (counted as corrupt and removed). Hits and misses are the caller's
   to count. *)
let read_entry d ~namespace ~key =
  let path = Filename.concat d (entry_file ~namespace ~key) in
  match read_file path with
  | None -> None
  | Some content -> (
    match decode_entry ~namespace ~key content with
    | Error _ ->
      reject_corrupt path;
      None
    | Ok payload -> (
      (* The CRC already vouches for the bytes; this catches only a
         payload written by an incompatible runtime. *)
      match Marshal.from_string payload 0 with
      | v -> Some v
      | exception (Failure _ | Invalid_argument _) ->
        reject_corrupt path;
        None))

let load ~namespace ~key =
  match Atomic.get current with
  | None -> None
  | Some d ->
    let result = read_entry d ~namespace ~key in
    Sfi_obs.Counter.incr (match result with Some _ -> obs_hits | None -> obs_misses);
    result

let memo ~namespace ~key ~valid f =
  match Atomic.get current with
  | None -> f ()
  | Some d -> (
    match read_entry d ~namespace ~key with
    | Some v when valid v ->
      Sfi_obs.Counter.incr obs_hits;
      v
    | _ ->
      Sfi_obs.Counter.incr obs_misses;
      let v = f () in
      store ~namespace ~key v;
      v)

(* ---------- in-process compute-once table ---------- *)

(* A short table lock finds or allocates the key's cell; the value is
   computed under the cell's own lock, so callers of one key wait for
   the first while distinct keys compute in parallel. [Mutex.protect]
   releases the cell on an exception and leaves it empty. *)
module Once = struct
  type 'a cell = { cell_lock : Mutex.t; mutable value : 'a option }

  type 'a t = { table_lock : Mutex.t; cells : (string, 'a cell) Hashtbl.t }

  let create () = { table_lock = Mutex.create (); cells = Hashtbl.create 8 }

  let get t ~key f =
    let cell =
      Mutex.protect t.table_lock (fun () ->
          match Hashtbl.find_opt t.cells key with
          | Some c -> c
          | None ->
            let c = { cell_lock = Mutex.create (); value = None } in
            Hashtbl.replace t.cells key c;
            c)
    in
    Mutex.protect cell.cell_lock (fun () ->
        match cell.value with
        | Some v -> v
        | None ->
          let v = f () in
          cell.value <- Some v;
          v)
end

(* ---------- maintenance (sfi cache ls / verify / prune) ---------- *)

type entry_info = {
  file : string;
  namespace : string;
  key : string;
  bytes : int;
  mtime : float;
  valid : bool;
  reason : string;
}

let is_entry_file f = Filename.check_suffix f ".sfic"

let is_temp_file f =
  (* "<name>.sfic.tmp.<pid>" — an interrupted writer's leftovers. *)
  let rec has_sfic_part = function
    | [] -> false
    | "sfic" :: _ :: _ -> true
    | _ :: rest -> has_sfic_part rest
  in
  (not (is_entry_file f)) && has_sfic_part (String.split_on_char '.' f)

let scan ~dir:d =
  match Sys.readdir d with
  | exception Sys_error _ -> []
  | files ->
    Array.sort compare files;
    Array.to_list files
    |> List.filter is_entry_file
    |> List.map (fun f ->
           let path = Filename.concat d f in
           let bytes, mtime =
             match Unix.stat path with
             | st -> (st.Unix.st_size, st.Unix.st_mtime)
             | exception Unix.Unix_error _ -> (0, 0.)
           in
           let namespace, key, valid, reason =
             match read_file path with
             | None -> ("", "", false, "unreadable")
             | Some content -> (
               match parse_entry content with
               | Ok (ns, k, _) -> (ns, k, true, "")
               | Error reason -> ("", "", false, reason))
           in
           { file = f; namespace; key; bytes; mtime; valid; reason })

let prune ?max_age_days ?(all = false) ~dir:d () =
  let now = Unix.time () in
  let stale e =
    match max_age_days with
    | Some days -> now -. e.mtime > days *. 86400.
    | None -> false
  in
  let victims = List.filter (fun e -> all || (not e.valid) || stale e) (scan ~dir:d) in
  let removed =
    List.fold_left
      (fun n e ->
        match Sys.remove (Filename.concat d e.file) with
        | () -> n + 1
        | exception Sys_error _ -> n)
      0 victims
  in
  (* Interrupted writers may leave temp files behind; sweep them too
     (not counted as evictions — they were never entries). *)
  (match Sys.readdir d with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if is_temp_file f then
          try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      files);
  Sfi_obs.Counter.add obs_evictions removed;
  removed
