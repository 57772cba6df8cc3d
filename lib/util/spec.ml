type trials_policy =
  | Fixed of int
  | Adaptive of { batch : int; max_trials : int; ci_target : float }

type t = {
  trials : trials_policy;
  seed : int;
  jobs : int option;
  checkpoint : string option;
}

let default = { trials = Fixed 100; seed = 1; jobs = None; checkpoint = None }

let validate t =
  (match t.trials with
  | Fixed n -> if n < 1 then invalid_arg "Spec: Fixed trials must be positive"
  | Adaptive { batch; max_trials; ci_target } ->
    if batch < 1 then invalid_arg "Spec: Adaptive batch must be positive";
    if max_trials < batch then invalid_arg "Spec: Adaptive max_trials must be >= batch";
    if not (ci_target > 0.) then invalid_arg "Spec: Adaptive ci_target must be positive");
  (match t.jobs with
  | Some j when j < 1 -> invalid_arg "Spec: jobs must be positive"
  | _ -> ());
  t

let with_trials n t = validate { t with trials = Fixed n }

let with_adaptive ?(batch = 16) ?(max_trials = 1000) ?(ci_target = 0.05) t =
  validate { t with trials = Adaptive { batch; max_trials; ci_target } }

let with_seed seed t = { t with seed }

let with_jobs jobs t = validate { t with jobs = Some jobs }

let with_checkpoint path t = { t with checkpoint = Some path }

let without_checkpoint t = { t with checkpoint = None }

(* Retarget the nominal per-point budget while keeping the policy kind:
   a driver that historically asked for "n trials here" keeps doing so
   under [Fixed], and under [Adaptive] raises the escalation ceiling to
   at least [n] without touching batch size or the precision target. *)
let with_nominal_trials n t =
  match t.trials with
  | Fixed _ -> validate { t with trials = Fixed n }
  | Adaptive a ->
    validate { t with trials = Adaptive { a with max_trials = max a.max_trials n } }

let max_trials t = match t.trials with Fixed n -> n | Adaptive a -> a.max_trials

let batch_size t =
  match t.trials with Fixed n -> n | Adaptive a -> min a.batch a.max_trials

let ci_target t = match t.trials with Fixed _ -> None | Adaptive a -> Some a.ci_target

let policy_to_string = function
  | Fixed n -> Printf.sprintf "fixed:%d" n
  | Adaptive { batch; max_trials; ci_target } ->
    Printf.sprintf "adaptive:batch=%d,max=%d,ci=%g" batch max_trials ci_target
