(** Placement policies over the shared candidate spine.

    The paper's host selection is one multicast and the first answer —
    "performs well at minimal cost for reasonably small systems"
    (Section 2.1). A [Placement.t] keeps that bidding mechanic
    ({!Scheduler.Spine}) but makes the {e scheduling domain} a policy
    decision: which multicast groups to offer a program to, and in what
    order. The policy is the symbolic {!Config.placement}, resolved once
    per cluster and carried in {!Context.t}; the three policies share
    every step except which pods count as saturated.

    Three policies:

    - [flat] — the paper verbatim: one global multicast domain
      ({!Ids.program_manager_group}). Byte-identical traces to the
      pre-refactor scheduler.
    - [pods] — the cluster partitioned into pods of at most [pod_size]
      workstations, each with its own scheduling group
      ({!Ids.pod_group}); a cross-pod tier routes by gossiped load
      summaries (EWMA of queue depth and idle-host count, refreshed on a
      seeded cycle like {!Health} probes) and falls back to the global
      group so stale summaries cost latency, never liveness.
    - [predictive] — [pods] plus exponential-smoothing arrival
      prediction per pod: a pod whose current occupancy plus predicted
      arrivals would exceed its guest capacity before the next gossip
      refresh is skipped {e before} it saturates.

    The pod policies also maintain per-pod {e credit windows} — AIMD
    counters that {!Serve}-style admission can shrink when queue-wait
    crosses its SLO threshold ({!note_queue_pressure}) — and per-pod
    in-flight accounting fed by {!select_any}/{!release}. All state is
    per-instance (one per cluster), so parallel replicas stay
    deterministic. *)

type t

val of_config : Config.t -> t
(** Resolve [cfg.placement] into a runtime policy instance. One instance
    per cluster: the instance holds the pod map, gossip summaries and
    credit windows. *)

val name : t -> string
(** ["flat"], ["pods"] or ["predictive"]. *)

val pod_size : t -> int
(** Configured pod capacity; [0] under the flat policy. *)

(** {1 Topology}

    The cluster registers each program-manager host into its pod at
    creation time (and re-registers on reboot). The flat policy ignores
    registration. *)

val register_host : t -> host:string -> pod:int -> unit
val pod_of : t -> host:string -> int option
val pod_count : t -> int

(** {1 Selection}

    Offers over {!Scheduler.Spine.select_in_group} and
    {!Scheduler.Spine.select_host}. [select_any] offers the program to
    an ordered list of multicast tiers — under the pod policies the
    best-scored unsaturated pods, then the global group; under flat the
    global group alone — until one yields a first responder. Trace
    output: one [Sched_query] (and on silence one [Sched_timeout]) per
    tier tried. *)

val select_any :
  ?health:Health.t ->
  ?exclude:string list ->
  t ->
  Kernel.t ->
  self:Ids.pid ->
  bytes:int ->
  (Scheduler.selection, string) result

val select_host :
  ?health:Health.t ->
  t ->
  Kernel.t ->
  self:Ids.pid ->
  host:string ->
  (Scheduler.selection, string) result

val survey_groups : t -> Ids.pid list
(** The multicast groups a load-balancing survey should sweep: each
    non-empty pod's group under a sharded policy, the global
    program-manager group under the flat one. *)

(** {1 Feedback}

    Selection increments the destination pod's in-flight count;
    completion (or placement failure) must release it. *)

val release : t -> host:string -> unit
(** The program placed on [host] finished (or was torn down). *)

val note_result : t -> host:string -> ok:bool -> unit
(** The placed program's outcome: a failed placement releases its
    in-flight credit; success is left to the caller's explicit
    {!release} (a served program holds its credit for its whole
    lifetime). *)

val note_pod_load : t -> pod:int -> queue:int -> idle:int -> unit
(** Fold one gossip observation — total guest programs and idle-host
    count seen in a pod survey — into the pod's EWMA summaries. *)

(** {1 Backpressure} *)

val admit : t -> bool
(** Whether any pod still has credit ([true] always under flat). Serve
    admission sheds when this is [false]. *)

val note_queue_pressure : t -> over:bool -> unit
(** AIMD credit adjustment: [over = true] (queue-wait EWMA past the SLO
    shed threshold) halves every pod's window (floor 1); [over = false]
    grows each window by 1 up to pod guest capacity. *)

(** {1 Introspection} *)

val selections : t -> int
(** Committed placements through this instance — the coverage counter
    behind the fuzz report's placement dimension. *)

val timeouts : t -> int
(** Tier offers that closed without a usable bid. *)

val pod_stats : t -> (string * Json_min.t) list
(** Per-pod summary snapshot for metrics reports. *)
