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
  candidacy_delay : Time.span;
  candidacy_jitter : Time.span;
  max_guests : int;
  precopy_min_residue : int;
  precopy_improvement : float;
  migration_retries : int;
  budgeted : bool;
  placement : placement;
}

let default =
  {
    os = Os_params.default;
    candidacy_delay = Time.of_ms 21.5;
    candidacy_jitter = Time.of_ms 4.;
    max_guests = 3;
    precopy_min_residue = 8 * 1024;
    precopy_improvement = 0.7;
    migration_retries = 0;
    budgeted = false;
    placement = Flat_multicast;
  }

let with_default_budgets t = { t with budgeted = true }

let env_setup = Time.of_ms 25.
let env_destroy = Time.of_ms 15.
let sum_env_spans = Time.add env_setup env_destroy
let select_timeout = Time.of_sec 2.
let min_free_memory = 128 * 1024
let precopy_max_rounds = 8
let kernel_state_base = Time.of_ms 14.
let kernel_state_per_object = Time.of_ms 9.
