(* Scheduling observability. Which executor runs a task — and therefore
   every count below except [map_items] — depends on timing, so those
   counters are registered [~det:false]: they never participate in the
   jobs=1 vs jobs=n determinism signature. *)
let obs_domains = Sfi_obs.Counter.make ~det:false "pool.domains_spawned"

let obs_batches = Sfi_obs.Counter.make ~det:false "pool.batches"

let obs_tasks = Sfi_obs.Counter.make ~det:false "pool.tasks"

let obs_caller_drained = Sfi_obs.Counter.make ~det:false "pool.caller_drained"

(* Item counts are independent of the job count, but phases served from
   the persistent result cache (Sfi_cache) skip their pool fan-out
   entirely, so the count reflects work performed, not requested. *)
let obs_map_items = Sfi_obs.Counter.make ~det:false "pool.map_items"

type t = {
  jobs : int;
  lock : Mutex.t;
  work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Workers drain the queue; when it is empty they sleep on [work] until
   either new tasks arrive or the pool is shut down. A worker only exits
   on an empty queue, so shutdown never abandons queued tasks. *)
let worker_loop pool =
  let rec loop () =
    Mutex.lock pool.lock;
    next ()
  and next () =
    match Queue.take_opt pool.queue with
    | Some task ->
      Mutex.unlock pool.lock;
      task ();
      loop ()
    | None ->
      if pool.stop then begin
        Mutex.unlock pool.lock;
        (* Fold this worker's observability shard into the retained base
           before the domain dies, so pool join merges the counts. *)
        Sfi_obs.retire_current_domain ()
      end
      else begin
        Condition.wait pool.work pool.lock;
        next ()
      end
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
    }
  in
  (* The caller participates in every map, so [jobs] executors means
     [jobs - 1] spawned domains; [jobs = 1] is pure serial execution. *)
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  Sfi_obs.Counter.add obs_domains (jobs - 1);
  pool

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Enqueue [tasks] and block until all have run. The caller helps drain
   the queue while waiting, which both uses its core and makes nested
   calls (a pool task that itself submits a batch) deadlock-free: every
   waiter makes progress on whatever work is pending. Exceptions are
   collected per task and the lowest-index one is re-raised once the
   whole batch has finished. *)
let run_all t tasks =
  let n = Array.length tasks in
  if n > 0 then begin
    let remaining = Atomic.make n in
    let exns = Array.make n None in
    Sfi_obs.Counter.incr obs_batches;
    let wrap i () =
      Sfi_obs.Counter.incr obs_tasks;
      (try tasks.(i) () with e -> exns.(i) <- Some e);
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        (* Last task of the batch: wake the waiting submitter. *)
        Mutex.lock t.lock;
        Condition.broadcast t.work;
        Mutex.unlock t.lock
      end
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.add (wrap i) t.queue
    done;
    Condition.broadcast t.work;
    let rec help () =
      if Atomic.get remaining > 0 then begin
        match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.lock;
          Sfi_obs.Counter.incr obs_caller_drained;
          task ();
          Mutex.lock t.lock;
          help ()
        | None ->
          Condition.wait t.work t.lock;
          help ()
      end
    in
    help ();
    Mutex.unlock t.lock;
    Array.iter (function Some e -> raise e | None -> ()) exns
  end

let map t f xs =
  let n = Array.length xs in
  Sfi_obs.Counter.add obs_map_items n;
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then begin
    (* Strict left-to-right serial evaluation, no queue overhead. *)
    let out = Array.make n (f xs.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- f xs.(i)
    done;
    out
  end
  else begin
    let out = Array.make n None in
    run_all t (Array.init n (fun i () -> out.(i) <- Some (f xs.(i))));
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

let parallel_init t n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  map t f (Array.init n Fun.id)

(* ---------- default job count & shared global pool ---------- *)

let override = Atomic.make 0 (* 0 = no override *)

let default_jobs () =
  let o = Atomic.get override in
  if o >= 1 then o else Domain.recommended_domain_count ()

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set override n

let global_lock = Mutex.create ()

let global_pool = ref None

let () =
  at_exit (fun () ->
      Mutex.protect global_lock (fun () ->
          match !global_pool with
          | Some p ->
            global_pool := None;
            shutdown p
          | None -> ()))

let global () =
  Mutex.protect global_lock (fun () ->
      let j = default_jobs () in
      match !global_pool with
      | Some p when p.jobs = j -> p
      | prev ->
        (match prev with Some p -> shutdown p | None -> ());
        let p = create ~jobs:j in
        global_pool := Some p;
        p)

let using ?jobs f =
  match jobs with
  | None -> f (global ())
  | Some j ->
    let reusable =
      Mutex.protect global_lock (fun () ->
          match !global_pool with
          | Some p when p.jobs = j -> Some p
          | _ -> None)
    in
    (match reusable with
    | Some p -> f p
    | None -> with_pool ~jobs:j f)
