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

val arbitrary : ?seed:int -> Rng.t -> t
(** Draw a scenario: 3–8 workstations (possibly split over a bridge),
    1–4 jobs over a mix of program sizes, arrivals in the first five
    virtual seconds, roughly half the jobs migrated mid-run, and 0–2
    fault events (crash/reboot pairs, loss windows, host slowdowns,
    flaky-host churn, correlated rack crashes with staggered reboots,
    and — on bridged clusters — partitions). [seed] is recorded in
    [sc_seed] for replay (default 0). *)

val of_seed : int -> t
(** [arbitrary ~seed (Rng.create seed)]. *)

val force_strategy : Protocol.strategy -> t -> t
(** Mutation mode ([vsim fuzz --strategy]): force every job onto one
    copy discipline, make each job's migration unconditional, and drop
    the fault plan — so every seed genuinely exercises the strategy.
    Generation itself is untouched: without this call, seeds keep
    producing byte-identical scenarios. *)

val describe : t -> string
(** One-line summary for failure reports. *)

val vm_flush_placeholder : Protocol.strategy
(** A [Vm_flush] naming no concrete page server (negative host id);
    generators can request the discipline before a cluster exists and
    {!run} substitutes the cluster's file server at launch time. *)

val strategy_of_token : string -> Protocol.strategy
(** The one CLI token table: each of {!Replay.strategy_tokens} to its
    discipline, [vmflush] to {!vm_flush_placeholder}. Raises
    [Invalid_argument] on any other token. *)

val resolve_strategy : Cluster.t -> Protocol.strategy -> Protocol.strategy
(** Substitute the cluster's file server into {!vm_flush_placeholder};
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
  o_fault_declared : string list;
      (** Fault kinds the scenario's plan declares ({!Faults.declared_kinds}). *)
  o_fault_fired : (string * int) list;
      (** Fault kinds that actually fired, with counts. *)
  o_monitors : (string * int) list;
      (** Per-monitor inspection counts ({!Monitors.coverage}). *)
  o_strategies : (string * int) list;
      (** Migration strategies that actually started ([Mig_start]
          events), by {!Protocol.strategy_name}, with counts. *)
  o_event_kinds : (string * int) list;
      (** Distinct trace-event constructors observed, rendered as
          "category/type" through the registered views, with counts. *)
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
    export its trace — the golden-trace harness and [bench stress]. *)

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

val arbitrary_serve : ?seed:int -> Rng.t -> serve
(** Draw a serve scenario: 4–12 workstations (possibly bridged),
    0.5–3 req/s for 15–30 virtual seconds, in-flight cap and queue
    limit both 2–8, balancer every 2–5 s, brownout shedding armed on
    half the draws, a placement policy (half flat, half pod-based with
    pods of 2–4 hosts), and 0–2 fault events. *)

val serve_of_seed : int -> serve
(** [arbitrary_serve ~seed (Rng.create seed)]. *)

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
  so_fault_declared : string list;
  so_fault_fired : (string * int) list;
  so_monitors : (string * int) list;
  so_strategies : (string * int) list;  (** As [o_strategies]. *)
  so_event_kinds : (string * int) list;  (** As [o_event_kinds]. *)
  so_placements : (string * int) list;
      (** Placement policy dispatched through, with its selection
          count — the sixth coverage dimension. *)
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
    session's request counts, fault-kind coverage, and monitor coverage.
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

    Production-shaped scenario families, each a pair of seeded
    generators (a plain job-batch shape and a serve sustained-load
    shape) plus the coverage contract the fuzz harness gates on with
    [--require-scenario-coverage]: which features must materialize
    across the sampled runs and which migration strategies the family
    promises to start. DESIGN.md §4i holds the catalog table. *)

module Library : sig
  type entry

  val all : entry list
  (** compile-farm, diurnal, flash-crowd, rack-failure, partition-heal,
      brownout, migrate-storm. *)

  val find : string -> entry option
  val names : string list

  val name : entry -> string

  val knobs : entry -> string
  (** Catalog column: the tunables. *)

  val stresses : entry -> string
  (** Catalog column: what it stresses. *)

  val monitors : entry -> string list
  (** Monitors this family is expected to exercise (documentation). *)

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
