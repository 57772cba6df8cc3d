(* Files the benchmark writes at run time, all under [.benchmark/] in the
   current directory (the checkout root): private cache directories,
   removed after use, and the span traces of traced runs. *)

let root = ".benchmark"

let ensure dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let counter = ref 0

let fresh_dir prefix =
  ensure root;
  incr counter;
  let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter) in
  ensure dir;
  dir

(* Removes a flat directory and the files in it. *)
let remove dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let file name =
  ensure root;
  Filename.concat root name
