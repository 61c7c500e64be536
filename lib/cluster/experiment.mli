(** Canned experiment scenarios.

    Each function drives a cluster through one of the paper's measured
    scenarios and returns the numbers; the benchmark harness formats
    them into the paper's tables and [EXPERIMENTS.md] compares. All are
    deterministic given the cluster's seed. *)

(** {1 Replica job lists}

    Sweeps are embarrassingly parallel per replica: each measurement
    builds its own seeded cluster and shares nothing. Exposing
    reps-style measurements as job lists (rather than internal loops)
    lets callers hand them to [Parrun.run ~jobs] and merge results in
    index order. *)

val seeded_jobs : reps:int -> base_seed:int -> (seed:int -> 'a) -> (unit -> 'a) list
(** [seeded_jobs ~reps ~base_seed f] is the job list whose [i]-th job
    runs [f ~seed:(base_seed + i)]. Each job must build its own cluster
    from the seed — jobs share no state, so the list may run on any
    number of domains. *)

(** {1 Remote execution cost (Section 4.1, E-exec)} *)

type exec_result = {
  er_host : string;  (** Where the program ran. *)
  er_select : Time.span option;
  er_setup : Time.span;
  er_load : Time.span;
  er_total : Time.span;
}

val exec_result_to_json : exec_result -> Json_min.t
(** Flat object of millisecond timings plus the host — the uniform
    result shape the bench harness serializes directly (a missing
    selection, i.e. local execution, is [Null]). *)

val remote_exec :
  Cluster.t ->
  ?ws:int ->
  ?target:Remote_exec.target ->
  prog:string ->
  unit ->
  (exec_result, string) result
(** Execute one program (default [target = Any]) from a workstation's
    command interpreter and report the creation-cost split. Runs the
    cluster until the program has completed. *)

(** {1 Dirty-page generation (Table 4-1)} *)

val dirty_rate :
  Cluster.t ->
  prog:string ->
  window:Time.span ->
  reps:int ->
  (float, string) result
(** Run the program locally at foreground priority on an otherwise idle
    workstation and measure the mean KB of unique pages dirtied per
    window, paper-style: after a 1 s warm-up, clear the dirty bits, let
    the program run one window, count. *)

val dirty_rate_jobs :
  ?workstations:int ->
  base_seed:int ->
  prog:string ->
  window:Time.span ->
  reps:int ->
  unit ->
  (unit -> (float, string) result) list
(** The parallel form of {!dirty_rate}: one job per rep, each measuring
    a single window on its own fresh cluster (seed [base_seed + i],
    [workstations] defaults to 2 — the sampler's host plus a spare).
    Average the [Ok] results for the replicated measurement. *)

(** {1 Migration (Sections 3-4, E-freeze)} *)

val migrate_program :
  Cluster.t ->
  ?ws:int ->
  ?strategy:Protocol.strategy ->
  ?run_for:Time.span ->
  ?extra_processes:int ->
  prog:string ->
  unit ->
  (Protocol.migration_outcome, string) result
(** Execute the program on an idle workstation ([@ *]), let it run
    [run_for] (default 3 s) so its working set is hot, then invoke
    [migrateprog] on its current host and report the outcome.
    [extra_processes] adds idle processes to the logical host first —
    the kernel-state-copy sweep (14 ms + 9 ms/object). *)

(** {1 Cluster-wide program survey}

    The paper's "suite of programs ... for querying and managing program
    execution on ... all workstations in the system" (Section 2). *)

val cluster_ps :
  Context.t -> (string * (string * Ids.lh_id * string) list) list
(** Ask every program manager (one group send) what it is running;
    returns (host, listing) pairs in response order. Blocking; call from
    a simulated process. *)

(** {1 Raw copy rate (E-copy)} *)

val copy_rate : Cluster.t -> bytes:int -> Time.span
(** Time one inter-host bulk transfer of the given size on an otherwise
    idle cluster — the paper's 3 s/MB address-space copy rate. *)

(** {1 Kernel operation latency (E-ovh)} *)

val kernel_op_latency : Cluster.t -> samples:int -> float
(** Mean local kernel-server round trip in microseconds. Comparing two
    clusters whose {!Os_params} differ isolates the 13 us frozen-test
    and 100 us group-lookup overheads. *)

(** {1 Pool-of-processors usage (Section 4.3, E-usage)} *)

type usage_params = {
  u_horizon : Time.span;
  u_job_rate_per_sec : float;  (** Cluster-wide submission rate. *)
  u_progs : string list;  (** Job mix, cycled through. *)
}

val default_usage_params : usage_params
(** 10 simulated minutes, one job every ~10 s, a compile-and-tex mix.
    Every workstation's owner follows {!Arrivals.Owner.default}. *)

type usage_stats = {
  us_submitted : int;
  us_honored : int;  (** Found an idle workstation. *)
  us_refused : int;  (** Nobody volunteered. *)
  us_completed : int;
  us_preemptions : int;  (** Guests migrated away by returning owners. *)
  us_preempt_destroyed : int;  (** Guests destroyed for lack of a host. *)
  us_mean_idle : float;  (** Mean workstation CPU idleness. *)
  us_owner_active_fraction : float;
  us_mean_freeze_ms : float;  (** Across preemption migrations. *)
}

val usage : Cluster.t -> usage_params -> usage_stats
(** The full pool-of-processors scenario: owners come and go (pausing
    volunteering and reclaiming their machines via [migrateprog] when
    they return), jobs arrive Poisson and run "[@ *]". *)

val usage_to_json : usage_stats -> Json_min.t
(** Flat object mirroring {!usage_stats} field for field. *)

val pp_usage : Format.formatter -> usage_stats -> unit
