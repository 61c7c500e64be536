type placement =
  | Flat_multicast
  | Pod_sharded of { pod_size : int }
  | Load_predictive of { pod_size : int; alpha : float }

let placement_name = function
  | Flat_multicast -> "flat"
  | Pod_sharded _ -> "pods"
  | Load_predictive _ -> "predictive"

let placement_of_string = function
  | "flat" | "flat-multicast" -> Some Flat_multicast
  | "pods" | "pod-sharded" -> Some (Pod_sharded { pod_size = 32 })
  | "predictive" | "load-predictive" ->
      Some (Load_predictive { pod_size = 32; alpha = 0.3 })
  | _ -> None

let placement_pod_size = function
  | Flat_multicast -> 0
  | Pod_sharded { pod_size } | Load_predictive { pod_size; _ } ->
      max 1 pod_size

(* A per-strategy migration deadline budget (Quest-V-style predictable
   migration): [bg_transfer] bounds the running copy phase, [bg_freeze]
   bounds the freeze window. [Migration.budget_for] holds the profile;
   unbudgeted (the default) is the paper's behavior. *)
type budget = { bg_freeze : Time.span; bg_transfer : Time.span }

type t = {
  os : Os_params.t;
  env_setup : Time.span;
  env_destroy : Time.span;
  candidacy_delay : Time.span;
  candidacy_jitter : Time.span;
  select_timeout : Time.span;
  max_guests : int;
  min_free_memory : int;
  precopy_min_residue : int;
  precopy_improvement : float;
  precopy_max_rounds : int;
  migration_retries : int;
  kernel_state_base : Time.span;
  kernel_state_per_object : Time.span;
  budgeted : bool;
  placement : placement;
}

let default =
  {
    os = Os_params.default;
    env_setup = Time.of_ms 25.;
    env_destroy = Time.of_ms 15.;
    candidacy_delay = Time.of_ms 21.5;
    candidacy_jitter = Time.of_ms 4.;
    select_timeout = Time.of_sec 2.;
    max_guests = 3;
    min_free_memory = 128 * 1024;
    precopy_min_residue = 8 * 1024;
    precopy_improvement = 0.7;
    precopy_max_rounds = 8;
    migration_retries = 0;
    kernel_state_base = Time.of_ms 14.;
    kernel_state_per_object = Time.of_ms 9.;
    budgeted = false;
    placement = Flat_multicast;
  }

let with_default_budgets t = { t with budgeted = true }

let sum_env_spans t = Time.add t.env_setup t.env_destroy
