(** Seeded random scenarios for deterministic simulation testing.

    A scenario is a complete experiment description — cluster size and
    topology, a random mix of programs with random arrival times and
    targets, optional mid-run migrations, and a {!Faults.plan} — drawn
    from a single {!Rng.t}, FoundationDB style: the seed {e is} the test
    case, and any failure replays exactly with [vsim fuzz --seed N].

    {!run} executes the scenario in a fresh cluster with the
    {!Monitors} bundle attached and reports every invariant violation
    together with its captured event window.

    Beyond the free-form generator, {!Library} holds named
    production-shaped scenario families (compile-farm, diurnal,
    flash-crowd, rack-failure, partition-heal, brownout, migrate-storm)
    selected with [vsim fuzz --scenario NAME]. *)

type target = Target_any | Target_host of int | Target_local

type job = {
  j_at : Time.t;  (** Submission instant. *)
  j_ws : int;  (** Submitting workstation index. *)
  j_prog : string;  (** A {!Programs} table name. *)
  j_target : target;
  j_migrate_after : Time.span option;
      (** If set, ask the program's manager to migrate it (to any
          volunteer) this long after it started. *)
  j_strategy : Protocol.strategy;
}

type t = {
  sc_seed : int;  (** Also seeds the cluster RNG. *)
  sc_label : string option;
      (** The {!Library} entry that generated this scenario, if any;
          carried into replay hints as [--scenario NAME]. *)
  sc_workstations : int;
  sc_bridged : int;
  sc_jobs : job list;
  sc_faults : Faults.plan;
  sc_horizon : Time.t;
  sc_expect_residual : bool;
      (** The scenario runs copy-on-reference on purpose: residual
          violations are expected, counted into [o_residual_seen], and
          removed from [o_violations]. Never set by {!force_strategy} —
          the mutation test relies on cor failing loudly. *)
}

val of_seed : int -> t
(** Draw a scenario from [seed]: 3–8 workstations (possibly split over a
    bridge), 1–4 jobs over a mix of program sizes, arrivals in the first
    five virtual seconds, roughly half the jobs migrated mid-run, and
    0–2 fault events (crash/reboot pairs, loss windows, host slowdowns,
    flaky-host churn, correlated rack crashes with staggered reboots,
    and — on bridged clusters — partitions). [seed] is recorded in
    [sc_seed] for replay. *)

val force_strategy : Protocol.strategy -> t -> t
(** Mutation mode ([vsim fuzz --strategy]): force every job onto one
    copy discipline, make each job's migration unconditional, and drop
    the fault plan — so every seed genuinely exercises the strategy.
    Generation itself is untouched: without this call, seeds keep
    producing byte-identical scenarios. *)

val describe : t -> string
(** One-line summary for failure reports. *)

val strategy_of_token : string -> Protocol.strategy
(** The one CLI token table: each of {!Replay.strategy_tokens} to its
    discipline, [vmflush] to a [Vm_flush] placeholder naming no concrete
    page server (negative host id). Raises
    [Invalid_argument] on any other token. *)

val resolve_strategy : Cluster.t -> Protocol.strategy -> Protocol.strategy
(** Substitute the cluster's file server into the [Vm_flush] placeholder;
    every other strategy is returned as is. *)

type outcome = {
  o_scenario : t;
  o_violations : Monitors.violation list;
  o_violations_dropped : int;
  o_residual_seen : int;
      (** Residual violations filtered out because the scenario declared
          [sc_expect_residual]; 0 otherwise. *)
  o_events : int;  (** Typed events emitted over the run. *)
  o_completed : int;  (** Jobs that ran to completion in the horizon. *)
  o_failed : int;  (** Jobs refused, killed by faults, or timed out. *)
  o_coverage : Coverage.t;
      (** What the run exercised ({!Coverage.of_run}); [placements] is
          empty and [features] is left to the caller. *)
}

val run : ?rebind:Os_params.rebind_mode -> ?content_cache:int -> t -> outcome
(** Execute in a fresh cluster (tracing on, monitors attached, the
    failure detector enabled, and default migration budgets installed)
    until the horizon. [rebind] defaults to the paper's
    [Broadcast_query]; [Forwarding] selects the Demos/MP ablation, whose
    forwarding addresses are exactly the residual dependency the
    [residual] monitor rejects — the built-in mutation test.
    [content_cache] sets [Os_params.content_cache_bytes] cluster-wide
    (0, the default, leaves content-addressed transfer off). *)

val run_cluster :
  ?rebind:Os_params.rebind_mode -> ?content_cache:int -> t ->
  outcome * Cluster.t
(** Like {!run} but also returns the (stopped) cluster, so callers can
    read its counters and guests. Its tracer is not kept
    ({!Tracer.keep}): only the boot log is retained. *)

val start :
  ?rebind:Os_params.rebind_mode -> ?content_cache:int -> t ->
  Cluster.t * (unit -> outcome)
(** {!run_cluster} in two steps: the monitored cluster with the
    scenario's jobs posted and its engine not yet fired, and the
    function that runs it to the horizon and returns the outcome. In
    between, a caller that reads the trace afterwards keeps it with
    {!Tracer.keep} (the golden-trace harness). *)

val replay_hint :
  ?forwarding:bool -> ?strategy:string -> ?content_cache:int -> t -> string
(** The command line that reproduces this scenario, including
    [--scenario] when the scenario came from the {!Library} and the
    run-mode flags the caller applied on top ({!Replay.format}). *)

(** {1 Serve mode}

    Sustained-load scenarios: instead of a handful of discrete jobs, a
    {!Serve.Session} drives an open-loop (possibly rate-modulated)
    Poisson stream with tight admission caps (so queueing and rejection
    paths are exercised), a fast balancer cycle, and the same random
    fault plans — all under the same monitor bundle. *)

type serve = {
  sv_seed : int;
  sv_label : string option;  (** As [sc_label]. *)
  sv_workstations : int;
  sv_bridged : int;
  sv_rate : float;  (** Base arrivals per second. *)
  sv_modulation : Arrivals.modulation;
      (** Rate shape over the horizon (diurnal sinusoid, flash-crowd
          spike); [Constant] is the classic homogeneous stream. *)
  sv_duration : Time.span;  (** Arrival horizon. *)
  sv_progs : string list;  (** Round-robin program mix. *)
  sv_max_in_flight : int;
  sv_queue_limit : int;
  sv_balancer_interval : Time.span;
  sv_strategy : Protocol.strategy option;
      (** Copy discipline for balancer migrations; [None] = pre-copy,
          the balancer's default. Overridden by {!run_serve}'s
          [?strategy]. *)
  sv_slo_shed : float option;
      (** Brownout multiple ([params.slo_shed_multiple]); [None] = no
          shedding. *)
  sv_placement : Config.placement;
      (** Placement policy the run resolves ([cfg.placement]).
          Overridden by {!run_serve}'s [?placement]. *)
  sv_faults : Faults.plan;
}

val placement_token : Config.placement -> string
(** Compact render for describe lines: ["flat"], ["pods/4"],
    ["predictive/4"]. *)

val serve_of_seed : int -> serve
(** Draw a serve scenario from [seed]: 4–12 workstations (possibly
    bridged), 0.5–3 req/s for 15–30 virtual seconds, in-flight cap and
    queue limit both 2–8, balancer every 2–5 s, brownout shedding armed
    on half the draws, a placement policy (half flat, half pod-based
    with pods of 2–4 hosts), and 0–2 fault events. *)

val describe_serve : serve -> string

val replay_serve_hint :
  ?forwarding:bool -> ?strategy:string -> ?placement:string ->
  ?content_cache:int -> serve -> string
(** The [vsim fuzz --serve ...] command line that reproduces it,
    including [--scenario] for {!Library} scenarios and [--placement]
    when the harness forced a policy override. *)

type serve_outcome = {
  so_scenario : serve;
  so_violations : Monitors.violation list;
  so_violations_dropped : int;
  so_events : int;
  so_submitted : int;
  so_completed : int;
  so_shed : int;  (** Submissions shed by brownout. *)
  so_stuck : int;  (** Requests in no terminal state — must be 0. *)
  so_coverage : Coverage.t;
      (** As [o_coverage]; [placements] counts the run's placement
          policy once when it committed at least one selection. *)
}

val run_serve :
  ?rebind:Os_params.rebind_mode ->
  ?content_cache:int ->
  ?strategy:Protocol.strategy ->
  ?placement:Config.placement ->
  serve ->
  serve_outcome
(** Execute in a fresh cluster (tracing on, monitors attached, the
    failure detector enabled, and default migration budgets installed):
    create the session, drain it, and report the violations with the
    session's request counts and the run's coverage.
    [strategy] forces the copy discipline the balancer uses for its
    migrations ([vsim fuzz --serve --strategy]), overriding the
    scenario's own [sv_strategy]; [placement] likewise forces the
    placement policy over [sv_placement] ([vsim fuzz --serve
    --placement]). Pod-based runs arm the session autoscaler. *)

val run_serve_cluster :
  ?rebind:Os_params.rebind_mode ->
  ?content_cache:int ->
  ?strategy:Protocol.strategy ->
  ?placement:Config.placement ->
  serve ->
  serve_outcome * Cluster.t
(** {!run_serve} returning the cluster as well, as {!run_cluster}. *)

(** {1 The scenario library}

    Production-shaped scenario families, each with two shapes (a plain
    job-batch shape and a serve sustained-load shape). A shape is one
    spec: a seeded generator plus the coverage it promises to the fuzz
    harness's [--require-coverage] gate — which migration strategies
    start and which named features materialize across the sampled runs.
    A feature is a predicate over a run's {!Coverage.t} and outcome,
    named once per shape; [heal] and [storm] read only the coverage.
    DESIGN.md §4i holds the catalog table. *)

module Library : sig
  type entry

  val all : entry list
  (** compile-farm, diurnal, flash-crowd, rack-failure, partition-heal,
      brownout, migrate-storm. *)

  val find : string -> entry option
  val names : string list

  val name : entry -> string

  val stresses : entry -> string
  (** Catalog column: what it stresses. *)

  val features : entry -> serve:bool -> string list
  (** Feature names that must materialize at least once across the
      sampled runs of this entry in the given mode. *)

  val strategies : entry -> serve:bool -> string list
  (** Strategy names ({!Protocol.strategy_name}) the entry promises to
      start at least once across its sampled runs. *)

  val plain : entry -> seed:int -> t
  (** Generate the plain shape from a salted per-entry RNG; [sc_seed]
      and [sc_label] are set for replay. *)

  val serve : entry -> seed:int -> serve
  (** Likewise for the sustained-load shape. *)

  val check_plain : entry -> outcome -> (string * bool) list
  (** Which declared features materialized in this outcome. *)

  val check_serve : entry -> serve_outcome -> (string * bool) list
end
