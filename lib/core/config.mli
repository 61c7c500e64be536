(** Calibration constants for the remote-execution and migration layers.

    Everything the paper measures that is not already a kernel
    ({!Os_params}) or network ({!Ethernet}, {!Transfer}) constant lives
    here, with its provenance. Changing a value rescales the benches'
    absolute numbers but not their shape. *)

(** Which placement policy host selection uses ({!Placement}). The
    symbolic constructor names a policy family; {!Placement.of_config}
    resolves it into a runtime policy instance per cluster.
    [Flat_multicast] is the paper's single-group first-responder bidding.
    [Pod_sharded] partitions the cluster into pods of at most [pod_size]
    workstations, each a multicast scheduling domain of its own, with a
    cross-pod tier routed by gossiped load summaries. [Load_predictive]
    adds exponential-smoothing arrival prediction (smoothing factor
    [alpha]) so the cross-pod tier picks a pod before it saturates. *)
type placement =
  | Flat_multicast
  | Pod_sharded of { pod_size : int }
  | Load_predictive of { pod_size : int; alpha : float }

val placement_name : placement -> string
(** ["flat"], ["pods"] or ["predictive"] — the CLI spellings. *)

val placement_of_string : string -> placement option
(** Accepts the CLI spellings plus the long names ["flat-multicast"],
    ["pod-sharded"] and ["load-predictive"]. Pod-based policies default
    to 32-workstation pods (the paper's "reasonably small systems"
    ceiling for one multicast domain). *)

val placement_pod_size : placement -> int
(** Pod capacity, or [0] for the flat policy (one global domain). *)

type budget = { bg_freeze : Time.span; bg_transfer : Time.span }
(** A migration deadline budget, à la Quest-V's predictable migration:
    [bg_transfer] bounds the running copy phase (step 3), [bg_freeze]
    bounds the freeze window (steps 4–5, freeze to resume). A migration
    that would blow its budget aborts — and, when
    {!field-budget_reselects} allows, reselects a destination — instead
    of stretching the window. *)

type t = {
  os : Os_params.t;  (** Kernel timing (Section 4.1 overheads). *)
  env_setup : Time.span;
      (** Program-manager work to create and initialize a program
          environment. Together with [env_destroy] this is the paper's
          "setting up and later destroying a new execution environment on
          a specific remote host is 40 milliseconds". *)
  env_destroy : Time.span;
  candidacy_delay : Time.span;
      (** A program manager's processing before answering a candidate
          query; with IPC and jitter this reproduces the measured 23 ms
          to first response (Section 4.1). *)
  candidacy_jitter : Time.span;  (** Uniform extra [0, jitter]. *)
  select_timeout : Time.span;
      (** How long host selection waits for any response before deciding
          no host is available. *)
  max_guests : int;
      (** A workstation stops volunteering beyond this many guest
          programs. *)
  min_free_memory : int;
      (** Candidacy requires at least this much free RAM beyond the
          program's own needs. *)
  busy_threshold : float;
      (** Candidacy requires recent CPU utilization below this. *)
  precopy_min_residue : int;
      (** Stop pre-copying when the dirty residue is at most this many
          bytes ("until the number of modified pages is relatively
          small", Section 3.1.2). *)
  precopy_improvement : float;
      (** ... "or until no significant reduction in the number of
          modified pages is achieved": stop when a round shrinks the
          residue by less than this factor. *)
  precopy_max_rounds : int;  (** Hard cap on copy rounds. *)
  migration_retries : int;
      (** Attempts after a failed transfer. The paper's implementation
          "simply gives up if the first attempt fails": 0. *)
  kernel_state_base : Time.span;  (** 14 ms (Section 4.1). *)
  kernel_state_per_object : Time.span;
      (** + 9 ms per process and address space (Section 4.1). *)
  budget_precopy : budget option;  (** Budget for pre-copy migrations. *)
  budget_freeze_copy : budget option;
  budget_cor : budget option;  (** ... copy-on-reference. *)
  budget_flush : budget option;  (** ... VM-flush. *)
  budget_reselects : int;
      (** How many times a budget-aborted migration may reselect a fresh
          destination (excluding the one that blew the budget) before
          giving up. Only applies when the caller did not pin the
          destination. Default 0, like {!field-migration_retries}. *)
  placement : placement;
      (** Placement policy family for host selection. Default
          [Flat_multicast] — byte-identical to the paper's scheduler. *)
}

val default : t
(** Every budget is [None] (unbounded) and [budget_reselects] is 0:
    byte-identical behavior to the paper's unbudgeted protocol. *)

val with_default_budgets : t -> t
(** Enable a budget profile sized for the paper's calibration constants
    (600 ms freeze bound for the small-residue strategies, transfer-scale
    bounds elsewhere) and at least one budget reselect. *)

val sum_env_spans : t -> Time.span
(** [env_setup + env_destroy] — the paper's 40 ms check. *)
