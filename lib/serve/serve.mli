(** Sustained-traffic service layer.

    The paper's facilities are exercised one command at a time; this
    module runs the cluster as a long-lived service: an open-loop
    arrival process submits programs continuously, an admission
    controller bounds how many run at once (queueing the overflow in a
    bounded waiting room), the {!Balancer} rebalances placements with
    pre-copy migration, and every request is accounted against
    service-level objectives — submit-to-running and submit-to-complete
    latency percentiles, throughput, migration rate, and freeze-time
    distribution.

    Under overload or failure the session degrades gracefully rather
    than queueing without bound: a {e brownout} mode sheds new
    submissions at the door while the estimated queue wait exceeds a
    configured multiple of the SLO target, and a cluster-wide re-exec
    budget caps the re-execution storm a correlated crash can trigger.
    Accounting is crash-safe: a submitting shell killed at any stage of
    its request (queued, holding a slot, awaiting completion) is settled
    by an exit hook, so [submitted = rejected + shed + refused +
    completed + failed] holds on every seed with any fault plan.

    All accounting is in virtual time, so a session is deterministic
    per cluster seed: replicas fanned over domains merge byte-identical
    (see [vsim serve -j]). *)

module Session : sig
  (** How requests arrive. *)
  type arrivals =
    | Poisson of float  (** Open-loop Poisson stream, arrivals/second. *)
    | Modulated of { rate : float; modulation : Arrivals.modulation }
        (** Open-loop non-homogeneous Poisson: base [rate] reshaped over
            virtual time (diurnal sinusoid, flash-crowd spike, ...). *)
    | Trace of Time.t list  (** Explicit submission instants. *)

  (** Worker-pool autoscaling: a periodic controller retargets the
      admission cap (initially [max_in_flight]) at
      [predicted_rate x observed_service_time / headroom] — Little's law
      with utilization headroom — moving only when the target leaves a
      hysteresis band around the current cap so the pool does not flap.
      The predicted rate is an exponential smoothing of observed
      arrivals; the service time an exponential smoothing of
      running-to-complete spans. *)
  type autoscale = {
    au_interval : Time.span;  (** Controller cadence. *)
    au_min : int;  (** Cap floor. *)
    au_max : int;  (** Cap ceiling. *)
  }
  (** The controller's constants are fixed: 0.8 utilization headroom, a
      hysteresis band of 0.2 x the current cap (retarget only when
      |target - cap| exceeds it), and 0.3 smoothing for both the rate
      and the service time. *)

  val default_autoscale : autoscale
  (** 2 s cadence, cap in [4, 4096]. *)

  type params = {
    arrivals : arrivals;
    duration : Time.span;  (** Arrival horizon (virtual). *)
    progs : string list;  (** Round-robin program mix. *)
    max_in_flight : int;  (** Admission: concurrent dispatched requests. *)
    queue_limit : int;  (** Waiting-room bound; beyond it, reject. *)
    balancer_interval : Time.span option;
        (** Rebalancing cycle period; [None] disables the balancer. *)
    strategy : Protocol.strategy option;
        (** Copy discipline for balancer-triggered migrations; [None]
            is the balancer's default, [Protocol.Precopy]. *)
    snapshot_every : Time.span option;
        (** Periodic metric snapshots; [None] disables them. *)
    reexec_attempts : int;
        (** Re-executions allowed when a request's host dies under it. *)
    reexec_budget : int option;
        (** Cluster-wide cap on total re-executions across the whole
            session ([None] = unlimited): a correlated crash orphans
            many requests at once, and without a shared budget each
            would independently re-execute onto the survivors. *)
    slo_target_ms : float;
        (** The queue-wait service-level objective (default 1 s). Only
            consulted when [slo_shed_multiple] is set. *)
    slo_shed_multiple : float option;
        (** Brownout threshold: shed new submissions while the
            estimated queue wait exceeds this multiple of
            [slo_target_ms]. [None] (default) disables shedding —
            behavior is then identical to a session without brownout. *)
    drain_grace : Time.span;
        (** How long past [duration] {!drain} lets stragglers finish. *)
    autoscale : autoscale option;
        (** [None] (default) pins the admission cap at [max_in_flight];
            [Some] starts the autoscaling controller. *)
  }

  val default_params : params
  (** 2 req/s Poisson for 120 s over the five usage-mix programs,
      [max_in_flight] 24, [queue_limit] 64, balancer every 5 s,
      snapshots every 10 s, one re-execution (unlimited pool), no
      brownout, 60 s grace. *)

  type t
  type request

  val create : ?params:params -> Cluster.t -> t
  (** Open a session on the cluster: installs the arrival process (each
      arrival submits from a round-robin workstation's shell) and starts
      the balancer. If [Cluster.enable_health] was called first, the
      balancer and every request's selection consult the failure
      detector. The simulation does not advance until {!drain}. *)

  val cluster : t -> Cluster.t

  val submit : t -> Context.t -> prog:string -> (request, string) result
  (** Submit one request from a client process. In brownout, fails
      immediately (shed). Otherwise blocks (in virtual time) in the
      admission queue while the in-flight cap is reached, then
      dispatches via {!Remote_exec.exec}. [Error] means the submission
      was shed, the waiting room was full (rejected), or every
      volunteer refused. Returns with the program {e running}. *)

  val await : t -> Context.t -> request -> (Time.span, string) result
  (** Wait for a submitted request; returns its submit-to-complete
      span. If the program's host dies under it, re-executes up to
      [reexec_attempts] times (spending the shared [reexec_budget])
      before giving up. Releasing the admission slot happens here (or
      on {!submit} failure). *)

  val drain : t -> unit
  (** Drive the simulation through the arrival horizon plus
      [drain_grace], letting in-flight requests finish. *)

  (** Aggregated service metrics; all spans in milliseconds. *)
  type metrics = {
    m_submitted : int;
    m_rejected : int;  (** Turned away at the full waiting room. *)
    m_shed : int;  (** Turned away by brownout load-shedding. *)
    m_refused : int;  (** Dispatched but no volunteer accepted. *)
    m_completed : int;
    m_failed : int;  (** Started but never finished (faults). *)
    m_outstanding : int;
        (** Requests still legitimately in flight (queued or running,
            owner alive) when the metrics were read — stragglers the
            drain grace cut off, not leaks. *)
    m_stuck : int;
        (** Submissions in no terminal state and owned by nobody —
            always 0; nonzero means a request leaked. *)
    m_reexecs : int;
    m_throughput_per_sec : float;  (** Completions per virtual second. *)
    m_queue_wait_ms : Stats.Summary.t;
    m_submit_to_running_ms : Stats.Summary.t;
    m_submit_to_complete_ms : Stats.Summary.t;
    m_brownout_spans : int;  (** Distinct brownout episodes entered. *)
    m_brownout_ms : float;  (** Total virtual time spent in brownout. *)
    m_migrations : int;
    m_freeze_ms : Stats.Summary.t;
    m_balancer_surveys : int;
    m_balancer_skips : int;
    m_mean_in_flight : float;
    m_mean_queued : float;
    m_cap_final : int;  (** Admission cap when metrics were read. *)
    m_cap_min : int;  (** Lowest cap the autoscaler reached. *)
    m_cap_max : int;  (** Highest cap the autoscaler reached. *)
    m_scale_events : int;  (** Cap retargets outside the band. *)
    m_service_ewma_ms : float;  (** Smoothed running-to-complete span. *)
    m_rate_ewma_per_sec : float;  (** Smoothed arrival rate. *)
    m_credit_sheds : int;
        (** Submissions shed because every pod's credit window was
            exhausted (placement backpressure, distinct from brownout
            sheds though counted inside [m_shed] too). *)
    m_placement_policy : string;
    m_placement_selections : int;
    m_placement_timeouts : int;
  }

  val metrics : t -> metrics

  val metrics_to_json : t -> Json_min.t
  (** The session's full report (schema ["vsim-serve/1"]): the
      {!metrics} scalars, p50/p95/p99 latency objects, a freeze-time
      histogram, brownout, health-detector, autoscale and placement
      sections, and the periodic snapshots. Deterministic per seed —
      contains no wall-clock quantities. *)
end
