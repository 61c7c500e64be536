(** Building simulated V clusters.

    The paper's installation: a set of diskless SUN workstations (2 MB
    RAM each) and server machines on one 10 Mbit Ethernet. A cluster
    bundles the engine, network, file server (holding every program
    image), and per-workstation kernel + program manager + display
    server, all seeded deterministically. *)

type workstation = {
  ws_index : int;
  ws_segment : int;  (** 0, or 1 for hosts behind the bridge. *)
  ws_kernel : Kernel.t;
  mutable ws_pm : Program_manager.t;
      (** Replaced when a fault-plan reboot recreates the machine
          services. *)
  mutable ws_display : Display_server.t;  (** Likewise. *)
}

type t

val create :
  ?seed:int ->
  ?workstations:int ->
  ?bridged:int ->
  ?bridge_delay:Time.span ->
  ?memory_bytes:int ->
  ?cfg:Config.t ->
  ?net_config:Ethernet.config ->
  ?disk_us_per_kb:int ->
  ?trace:bool ->
  ?faults:Faults.plan ->
  unit ->
  t
(** Build a cluster: one dedicated file-server machine plus
    [workstations] (default 6) workstations named ["ws0"], ["ws1"], ...
    All program images from {!Programs.all} are published, along with
    each program's input file. [trace] (default false) enables the
    cluster-wide tracer.

    [bridged] (default 0) moves the {e last} that-many workstations onto
    a second Ethernet segment joined to the first by a store-and-forward
    bridge with [bridge_delay] (default 2 ms) per frame — the first step
    toward the internet environment Section 6 leaves as future work. The
    file server stays on segment 0.

    [disk_us_per_kb] overrides the file server's media speed (default
    the paper-calibrated 300 us/KB) — scale-out benches provision
    modern storage so the single server loop is not the whole
    experiment.

    [faults] compiles a {!Faults.plan} onto the engine: crashes hit
    workstation kernels, reboots recreate machine services, loss windows
    apply cluster-wide, partitions sever the bridge, slowdowns scale a
    host's CPU. Raises [Invalid_argument] for a plan naming an unknown
    workstation or partitioning an unbridged cluster. *)

val engine : t -> Engine.t
val net : t -> Packet.t Ethernet.t
val cfg : t -> Config.t

val directory : t -> Directory.t
(** The logical-host to kernel registry program bodies resolve through. *)

val tracer : t -> Tracer.t
val rng : t -> Rng.t
(** A fresh independent stream per call. *)

val file_server : t -> File_server.t
val name_server : t -> Name_server.t

val faults : t -> Faults.t option
(** The installed fault plan, if the cluster was created with one. *)

val enable_health : ?config:Health.config -> t -> Health.t
(** Start the cluster failure detector (idempotent): probers run on the
    file-server machine — fault plans only target workstations, so the
    observer never crashes — watching every workstation. The view is
    attached to every program manager (including ones recreated by
    fault-plan reboots) and to every {!context} created afterwards. *)

val health : t -> Health.t option
(** The running failure detector, if {!enable_health} was called. *)

val placement : t -> Placement.t
(** The cluster's shared placement policy instance, resolved from
    [cfg.placement] at creation. Under a pod-based policy every
    program manager has joined its {!Ids.pod_group} and one gossip
    daemon per pod (observing from the file-server machine, like the
    failure detector) keeps the policy's pod load summaries fresh.
    Threaded into every {!context}. *)

val size : t -> int
val workstation : t -> int -> workstation
val workstations : t -> workstation list
val find_workstation : t -> string -> workstation option

val sum_stat : t -> Kernel.counter -> int
(** A kernel counter summed over the workstations, not the file server. *)

val env_for : t -> workstation -> Env.t
(** The standard execution environment for programs invoked from this
    workstation: the global file server, the {e originating} display,
    and a warm name cache. *)

val user :
  t -> ws:int -> name:string -> (Kernel.t -> Ids.pid -> unit) -> Vproc.t
(** Spawn an interactive-user process (foreground priority, own logical
    host) on a workstation — the "command interpreter" from which
    programs are launched. The body gets the workstation's kernel and
    its own pid. Prefer {!shell} when the body talks to the
    {!Remote_exec} API. *)

val context : t -> ws:int -> self:Ids.pid -> Context.t
(** The execution context of a client process [self] running on
    workstation [ws]: that workstation's kernel, the cluster config, the
    standard environment from {!env_for}, and the failure-detector view
    when {!enable_health} has been called. *)

val shell :
  t -> ws:int -> name:string -> (Context.t -> unit) -> Vproc.t
(** {!user}, but the body receives its ready-made {!Context.t} — the
    idiom for driving {!Remote_exec} and [Serve]. *)

val run : ?until:Time.t -> ?max_steps:int -> t -> unit
(** Drive the simulation. Without [until], runs the event queue dry —
    note that kernels retransmit and servers wait forever, so most
    experiments pass a horizon. *)

val now : t -> Time.t
