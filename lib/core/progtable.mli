(** Program records: the program manager's per-program state.

    "There is a program manager on each workstation that provides program
    management for programs executing on that workstation" (Section 2.1).
    Its per-program state — who is waiting for completion, what was
    loaded, when it started — is precisely the state that must be handed
    to the destination program manager when the program migrates
    (Sections 3.1.3/4.1 count it in the kernel-state copy). Records live
    in one {!registry} per cluster, and ownership follows residency: a
    manager owns those whose logical host {!Directory.locate} places on
    its kernel, so the install that makes a migrated host resident is
    the handoff. The migration protocol charges the state copy's time. *)

type status =
  | Running
  | Migrating
  | Suspended
  | Done of { at : Time.t; cpu_used : Time.span; failed : bool }
      (** [failed] when the program died on an exception (e.g. its file
          server became unreachable) or was destroyed, rather than
          running to completion. *)

type program = {
  p_lh : Logical_host.t;
  p_spec : Programs.spec;
  p_env : Env.t;
  p_root : Vproc.t;  (** The program's initial process. *)
  p_space : Address_space.t;
  p_model : Dirty_model.t;
  p_started : Time.t;
  p_origin : string;  (** Host that created it (owner's workstation). *)
  mutable p_status : status;
  mutable p_waiters : Delivery.t list;  (** Blocked [Pm_wait] requests. *)
  mutable p_cpu_used : Time.span;
}

type registry
(** Every live program record in a cluster. *)

type t
(** One program manager's view: the records it owns. *)

val registry : unit -> registry
val view : registry -> directory:Directory.t -> Kernel.t -> t

val add :
  t ->
  lh:Logical_host.t ->
  spec:Programs.spec ->
  env:Env.t ->
  root:Vproc.t ->
  space:Address_space.t ->
  model:Dirty_model.t ->
  origin:string ->
  program

val find : t -> Ids.lh_id -> program option
(** The record, if owned here: one manager owns it even when a lost
    install acknowledgement leaves two resident copies. *)

val programs : t -> program list
(** The owned records, in logical-host id order. *)

val remove : t -> program -> unit
(** Drop the record, whoever owns it, without touching the logical host
    (destruction goes through {!finish}'s caller, the reaper). *)

val add_waiter : program -> Delivery.t -> unit

type Message.body +=
  | Pm_exited of { wall : Time.span; cpu : Time.span; ok : bool }
        (** Reply to a completion waiter. *)

val finish : Kernel.t -> program -> cpu_used:Time.span -> failed:bool -> unit
(** Mark the program done and answer every waiter with {!Pm_exited}
    from the kernel it ended on. Must be called from a simulated
    process. *)

val charge_cpu : program -> Time.span -> unit
(** Accumulate scheduled CPU (for reporting). *)
