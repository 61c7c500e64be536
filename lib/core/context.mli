(** The execution context a client carries into the remote-execution API.

    Every client-side operation in V needs the same four things: the
    kernel handle of the workstation it runs on, the cluster
    configuration, its own process id (the reply address for kernel
    sends), and the execution environment that travels with created
    programs (Section 2.2's per-program environment: file server,
    display, name cache, arguments). Threading them as four positional
    and labelled arguments through every call — the historical
    [Kernel.t -> Config.t -> self:… -> env:…] soup — made each new
    entry point grow the same tuple. A {!t} packages them once; APIs
    such as {!Remote_exec} and [Serve] take the context and nothing
    else.

    A context is cheap and immutable: derive variants with {!with_env}
    (e.g. a private file server) rather than mutating. *)

type t = {
  kernel : Kernel.t;  (** The workstation this client runs on. *)
  cfg : Config.t;
  self : Ids.pid;  (** The client process — reply address for sends. *)
  env : Env.t;  (** Environment handed to programs it creates. *)
  health : Health.t option;
      (** Cluster failure-detector view, when one is running. *)
  placement : Placement.t;
      (** The placement policy instance host selection dispatches
          through. Shared cluster-wide (it holds the pod summaries and
          credit windows), like [health]. *)
}

val make :
  ?health:Health.t ->
  ?placement:Placement.t ->
  kernel:Kernel.t ->
  cfg:Config.t ->
  self:Ids.pid ->
  env:Env.t ->
  unit ->
  t
(** [placement] defaults to a fresh instance resolved from
    [cfg.placement] — correct for one-off contexts; clusters pass their
    shared instance so every client sees the same summaries. *)

val with_env : t -> Env.t -> t
(** Same client, different program environment. *)

val kernel : t -> Kernel.t

val self : t -> Ids.pid

val env : t -> Env.t

val health : t -> Health.t option
(** The failure-detector view, if the cluster runs one. Selection and
    migration paths thread it through so known-dead hosts are skipped
    instead of timed out against. *)

val placement : t -> Placement.t
(** The placement policy host selection dispatches through. *)
