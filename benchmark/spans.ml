(* In-memory span recorder for the traced run.

   Spans are recorded only around the benchmark's own calls into each
   layer's public functions, on the main domain, so they nest strictly:
   a child starts after and ends before its parent. Recording is off
   unless [enabled] is set; then [time] costs one branch. *)

type span = {
  id : int;
  name : string;  (* "<layer>.<what>"; the layer is the part before the dot *)
  request : string;  (* "<workload>:<phase>" — spans of one request share it *)
  parent : int;  (* -1 for a root span *)
  start : float;  (* seconds since [origin] *)
  stop : float;
}

let origin = Unix.gettimeofday ()

let enabled = ref false

let request = ref ""

let open_spans = ref []

let finished = ref []

let next_id = ref 0

let time name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start = Unix.gettimeofday () -. origin in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () -. origin in
        open_spans := List.tl !open_spans;
        finished := { id; name; request = !request; parent; start; stop } :: !finished)
      f
  end

let reset () =
  finished := [];
  open_spans := [];
  next_id := 0

let all () = List.rev !finished

let duration s = s.stop -. s.start

let named name = List.filter (fun s -> s.name = name) (all ())

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* A span's self time is its duration minus the time its children cover.
   Children of one parent never overlap (they run sequentially on one
   domain), so their durations simply add up. *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)))
    spans

(* Self time summed per layer, largest first. *)
let self_by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      Hashtbl.replace tbl l (self +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    (self_times spans);
  List.sort (fun (_, a) (_, b) -> Float.compare b a) (List.of_seq (Hashtbl.to_seq tbl))

let to_json spans =
  let open Sfi_obs.Json in
  List
    (List.map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("name", String s.name);
             ("request", String s.request);
             ("parent", Int s.parent);
             ("start_s", Float s.start);
             ("end_s", Float s.stop);
           ])
       spans)

let of_json json =
  let open Sfi_obs.Json in
  let field name conv s =
    match Option.bind (member name s) conv with
    | Some v -> v
    | None -> raise (Parse_error ("span without a valid " ^ name))
  in
  match json with
  | List items ->
    List.map
      (fun s ->
        {
          id = field "id" to_int s;
          name = field "name" to_string_opt s;
          request = field "request" to_string_opt s;
          parent = field "parent" to_int s;
          start = field "start_s" to_float s;
          stop = field "end_s" to_float s;
        })
      items
  | _ -> raise (Parse_error "spans: expected a list")
