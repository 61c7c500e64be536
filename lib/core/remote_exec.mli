(** Remote program execution — the "[prog args @ machine]" facility.

    The client side of Section 2: select a host (explicitly named, or
    "[*]" for any idle workstation), ask its program manager to create
    and start the program, and optionally wait for completion. Local
    execution goes through the same path minus selection, at foreground
    priority; remote programs run as background guests. The timing
    breakdown the paper reports (selection / environment setup / image
    load, Section 4.1) is returned with every execution. *)

type target =
  | Local  (** Run on the invoking workstation. *)
  | Named of string  (** "[@ machine]". *)
  | Any  (** "[@ *]": first idle volunteer. *)

(** Emitted by {!exec_and_wait} under [`Reexec] when [prog]'s host
    [lost_on] died under it ([error] is the wait error) and the program
    is re-run elsewhere, with [attempts_left] re-executions remaining.
    Category ["exec"], type ["reexec"]. *)
type Tracer.event +=
  | Reexec of {
      prog : string;
      lost_on : string;
      error : string;
      attempts_left : int;
    }

type timings = {
  t_select : Time.span option;
      (** Host-selection latency ([None] for local execution); the
          paper's 23 ms. *)
  t_setup : Time.span;  (** Environment creation; part of the 40 ms. *)
  t_load : Time.span;  (** Image load; 330 ms per 100 KB. *)
  t_total : Time.span;  (** Invocation to program running. *)
}

type handle = {
  h_pm : Ids.pid;
      (** The creating workstation's own program-manager pid. It stays
          on that workstation when the program moves (and is preserved
          across a reboot), so it is the stable address for
          {!migrate_program} from the program's first host. *)
  h_host : string;
  h_lh : Ids.lh_id;
  h_root : Ids.pid;
  h_timings : timings;
}

val exec :
  Context.t ->
  prog:string ->
  target:target ->
  (handle, string) result
(** Start a program; returns once it is running. Blocking; call from a
    simulated process (the context's [self]). With [target = Any], a
    volunteer that filled up between answering the query and receiving
    the creation request causes re-selection, up to five tries in
    all. *)

val wait : Context.t -> handle -> (Time.span * Time.span, string) result
(** Block until the program exits; returns (wall time, CPU time). Works
    across migrations: if the program moved, the manager named in the
    handle no longer knows it and the wait is retried against the
    program's current host via the binding machinery. *)

val host_failure_error : string -> bool
(** Whether a {!wait} error means the program's {e host} died under it
    (unreachable manager, or a rebooted manager that never heard of the
    program) — the errors re-execution can recover from — as opposed to
    the program itself failing. *)

val exec_and_wait :
  ?on_host_failure:[ `Fail | `Reexec of int ] ->
  Context.t ->
  prog:string ->
  target:target ->
  (handle * Time.span * Time.span, string) result
(** [exec] then [wait]. [on_host_failure] decides what happens when the
    wait fails because the program's host died under it (the send gave
    up, or a rebooted manager no longer knows the program): [`Fail] (the
    default) surfaces the error; [`Reexec n] re-runs the program from
    scratch — re-selecting a host when [target = Any] — up to [n] more
    times. Re-execution gives at-least-once semantics: a program that
    ran partially before the crash runs again, so opt in only for
    idempotent work. Errors that indicate the program itself failed are
    never retried. *)

(** {1 Program management}

    "Facilities for terminating, suspending and debugging programs work
    independent of whether the program is executing locally or remotely"
    (Section 2): all three address the program manager through the
    program's logical-host id, which resolves to its current host. *)

val suspend : Context.t -> handle -> (unit, string) result
(** Freeze the program in place (the migration freeze, minus the copy). *)

val resume : Context.t -> handle -> (unit, string) result

val destroy : Context.t -> handle -> (unit, string) result
(** Terminate the program wherever it currently runs. Completion waiters
    are answered with a failure. *)

(** {1 Program survey} *)

val survey :
  Kernel.t ->
  self:Ids.pid ->
  group:Ids.pid ->
  window:Time.span ->
  (Ids.pid * string * (string * Ids.lh_id * string) list * Ids.lh_id list)
  list
(** [survey k ~self ~group ~window] multicasts one [Pm_list_programs]
    from [self] to the program managers in [group] and collects answers
    for [window]. One [(pm, host, programs, guests)] per manager heard,
    in response order: [pm] is the manager's own pid, [programs] its
    (program, logical host, status) table and [guests] its running,
    migratable guests. Blocking; call from the simulated process
    [self]. *)

(** {1 Migration}

    "[migrateprog [-n] [program]]" (Section 3): ask a program manager to
    move one of its guests, or all of them, to other workstations. *)

type migrate_error =
  | Refused of string
      (** The manager answered [Pm_migrate_failed]: it tried (or could
          not start) and every program it was asked about still runs
          where it did. *)
  | No_answer of string
      (** The request got no migration answer: the send gave up (the
          send error's text) or the reply was malformed. *)

val migrate_error_message : migrate_error -> string

val migrate :
  ?strategy:Protocol.strategy ->
  ?dest:string ->
  ?force_destroy:bool ->
  Kernel.t ->
  self:Ids.pid ->
  pm:Ids.pid ->
  Ids.lh_id option ->
  (Protocol.migration_outcome list, migrate_error) result
(** [migrate k ~self ~pm lh] sends one [Pm_migrate] request from [self]
    to the program manager [pm] and waits for its answer, one outcome per
    program moved. [lh = None] is [migrateprog] with no argument: every
    guest on [pm]'s workstation. [strategy] defaults to
    [Protocol.Precopy]; [dest] names the destination (default: host
    selection picks); [force_destroy] is the paper's [-n] flag, destroying
    a program no host will take (it is then missing from the outcomes).
    Which [pm] to address is the caller's choice: a workstation's own
    manager pid, or [Ids.program_manager_of lh], the program's
    logical-host group, which resolves to wherever it runs now. Blocking;
    call from the simulated process [self]. *)

val migrate_program :
  ?strategy:Protocol.strategy ->
  ?dest:string ->
  ?pm:Ids.pid ->
  Context.t ->
  handle ->
  (Protocol.migration_outcome, migrate_error) result
(** {!migrate} for one program started by {!exec}. [pm] defaults to the
    program's logical-host group, [Ids.program_manager_of h.h_lh]; pass
    [h.h_pm] to address the manager of the workstation it started on. *)
