(** Preemptive load balancing.

    The paper stops short of this: "we have not used the preemption
    facility to balance the load across multiple workstations ...
    increasing use of distributed execution ... may provide motivation to
    address this issue" (Section 6). This module is that future-work
    item, built entirely from the facilities the paper does provide: the
    program-manager group query for loads and [migrateprog] for the move.

    The balancer is a daemon on one workstation. Each cycle it surveys
    every program manager, and if the busiest workstation runs at least
    two more guests than the idlest volunteer, it asks the busy
    host's manager to migrate one guest (destination chosen by the normal
    decentralized selection). One move per cycle keeps it stable.

    Crash resilience: a surveyed host can crash between answering the
    survey and receiving the migrate request. The daemon skips it, tries
    the next-busiest candidate, and counts the skip — a dead host never
    wedges the cycle loop. *)

(** [Bal_move] fires when a cycle asks busy [host] (running [guests]
    guests against the idlest volunteer's [floor]) to shed one guest;
    [Bal_skip] when a candidate or a whole cycle is skipped, with the
    reason. Category ["balance"], types ["move"] and ["skip"]. *)
type Tracer.event +=
  | Bal_move of { host : string; guests : int; floor : int }
  | Bal_skip of { reason : string }

type t

val start :
  ?health:Health.t ->
  ?placement:Placement.t ->
  ?interval:Time.span ->
  ?strategy:Protocol.strategy ->
  ?on_outcome:(Protocol.migration_outcome -> unit) ->
  Kernel.t ->
  t
(** Start the daemon on the given workstation. [interval] defaults to
    5 s, [strategy] (the copy discipline every
    triggered migration uses) to {!Remote_exec.migrate}'s,
    [Protocol.Precopy]. [on_outcome] is
    invoked once per completed rebalancing migration with the full
    migration outcome — service layers use it for freeze-time
    accounting.

    With a [placement] policy the survey is scoped to the policy's
    {!Placement.survey_groups}, one group per cycle round-robin — under
    pod sharding a sweep never multicasts beyond one pod, and triggered
    moves stay pod-local. Without one (or under the flat policy) each
    cycle sweeps the single global program-manager group.

    With a [health] view the daemon consults it before surveying: if
    fewer than two watched peers are alive the whole cycle is skipped
    (no multicast, no collection window), and survey replies from hosts
    the detector distrusts are dropped so a [Suspect] host is never
    chosen as a migration source. *)

val stop : t -> unit

val surveys : t -> int
(** Cycles completed. *)

val rebalances : t -> int
(** Migrations triggered. *)

val skips : t -> int
(** Candidates skipped mid-cycle — unreachable (crashed) or refusing
    busy hosts the daemon stepped past. *)
