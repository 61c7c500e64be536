(** The per-workstation program manager.

    "There is a program manager on each workstation that provides program
    management for programs executing on that workstation" (Section 2.1).
    It is an ordinary process at the well-known local index
    {!Ids.program_manager_index}, a member of the global program-manager
    group, and it implements both sides of every protocol in this
    library: candidate queries, program creation (environment setup,
    image load from the file server, start), completion waits,
    migration-destination reservations and adoptions, and the
    [migrateprog] entry point that spawns a migration manager. *)

(** One event per program this manager creates, emitted once the
    program's environment is set up, its image loaded and its root
    process started. Category ["pm"], type ["created"]. *)
type Tracer.event +=
  | Pm_created of { host : string; prog : string; lh : Ids.lh_id }

type t

val create :
  ?accepting:bool ->
  Kernel.t ->
  cfg:Config.t ->
  directory:Directory.t ->
  rng:Rng.t ->
  t
(** Start the program manager on a workstation. [accepting] (default
    true) is the owner's policy switch: whether this workstation
    volunteers for guest work. *)

val pid : t -> Ids.pid
(** The manager's process id — also reachable location-independently as
    [Ids.program_manager_of lh] for any logical host resident here. *)

val join_pod : t -> pod:int -> unit
(** Join this manager to {!Ids.pod_group}[ pod] — its scheduling domain
    under a pod-sharded {!Config.placement}. Called by the cluster at
    creation (and again after a reboot recreates the manager); a manager
    answers candidate queries identically on both its groups. *)

val pod : t -> int option
(** The pod joined via {!join_pod}, if any. *)

val kernel : t -> Kernel.t
val table : t -> Progtable.t
val programs : t -> Progtable.program list
val guest_programs : t -> Progtable.program list

val accepting : t -> bool
val set_accepting : t -> bool -> unit
(** Flip the volunteering policy — wired to owner activity in the
    cluster layer: an owner at the keyboard stops new guests arriving
    (reclaiming residents is [migrateprog], not this switch). *)

val health : t -> Health.t option
val set_health : t -> Health.t option -> unit
(** Attach (or detach) the cluster failure-detector view. When present,
    the migration manager spawned by [migrateprog] threads it through
    destination selection and the migration budget/retry loop. *)
