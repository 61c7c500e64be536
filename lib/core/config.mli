(** Calibration constants for the remote-execution and migration layers.

    Everything the paper measures that is not already a kernel
    ({!Os_params}) or network ({!Ethernet}, {!Transfer}) constant lives
    here, with its provenance. The fields of {!t} are the values some
    experiment varies; the values below it ({!env_setup} and on) are
    fixed constants. Changing a value rescales the benches' absolute
    numbers but not their shape. *)

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
    that would blow its budget aborts — and, when {!field-budgeted}
    allows, reselects a destination — instead of stretching the
    window. *)

type t = {
  os : Os_params.t;  (** Kernel timing (Section 4.1 overheads). *)
  candidacy_delay : Time.span;
      (** A program manager's processing before answering a candidate
          query; with IPC and jitter this reproduces the measured 23 ms
          to first response (Section 4.1). *)
  candidacy_jitter : Time.span;  (** Uniform extra [0, jitter]. *)
  max_guests : int;
      (** A workstation stops volunteering beyond this many guest
          programs. *)
  precopy_min_residue : int;
      (** Stop pre-copying when the dirty residue is at most this many
          bytes ("until the number of modified pages is relatively
          small", Section 3.1.2). *)
  precopy_improvement : float;
      (** ... "or until no significant reduction in the number of
          modified pages is achieved": stop when a round shrinks the
          residue by less than this factor. *)
  migration_retries : int;
      (** Attempts after a failed transfer. The paper's implementation
          "simply gives up if the first attempt fails": 0. *)
  budgeted : bool;
      (** Enforce the per-strategy deadline budgets ({!Migration.migrate}
          documents the profile) and let a budget-aborted migration
          reselect a fresh destination once (excluding the one that blew
          the budget; only when the caller did not pin the destination).
          Default [false]: unbounded, no reselects, like
          {!field-migration_retries}. *)
  placement : placement;
      (** Placement policy family for host selection. Default
          [Flat_multicast] — byte-identical to the paper's scheduler. *)
}

val default : t
(** Unbudgeted ([budgeted = false]): byte-identical behavior to the
    paper's unbudgeted protocol. *)

val with_default_budgets : t -> t
(** [{ t with budgeted = true }]: the budget profile sized for the
    paper's calibration constants and one budget reselect. *)

(** {1 Fixed calibration}

    Values no experiment varies. *)

val env_setup : Time.span
(** 25 ms: program-manager work to create and initialize a program
    environment. Together with {!env_destroy} this is the paper's
    "setting up and later destroying a new execution environment on a
    specific remote host is 40 milliseconds" (Section 4.1). *)

val env_destroy : Time.span
(** 15 ms: tearing the environment down again. *)

val sum_env_spans : Time.span
(** [env_setup + env_destroy] — the paper's 40 ms check. *)

val select_timeout : Time.span
(** 2 s: how long host selection waits for any response before deciding
    no host is available. *)

val min_free_memory : int
(** 128 KB: candidacy requires at least this much free RAM beyond the
    program's own needs, and a ready queue of at most one process
    ({!Cpu.queue_length}): a workstation volunteers only while its CPU
    is essentially idle. *)

val precopy_max_rounds : int
(** 8: hard cap on pre-copy rounds. *)

val kernel_state_base : Time.span
(** 14 ms to copy a logical host's kernel state (Section 4.1) ... *)

val kernel_state_per_object : Time.span
(** ... + 9 ms per process and address space (Section 4.1). *)
