(** Simulated lightweight processes (green threads).

    Bodies are plain OCaml functions written in direct style; blocking
    operations ({!sleep}, {!Ivar.read}, {!Mailbox.recv}, ...) suspend the
    underlying OCaml 5 effect continuation and the {!Engine} resumes it at
    the right virtual instant. This lets the V kernel, servers and
    workloads read like straight-line systems code.

    Killing is how the simulation models [DestroyProcess]: a process
    suspended on any blocking operation is discontinued immediately with
    {!Killed_exn}; a process that is currently running is marked doomed and
    dies at its next suspension point. *)

type t
(** A process handle. *)

type exit =
  | Normal  (** The body returned. *)
  | Exn of exn  (** The body raised. *)
  | Killed  (** {!kill} terminated it. *)

exception Killed_exn
(** Raised inside a process being killed, so [Fun.protect] cleanup runs. *)

val spawn : Engine.t -> (unit -> unit) -> t
(** [spawn engine body] creates a process that starts running at the
    current virtual instant (after already-queued events). *)

val reset_ids : unit -> unit
(** Reset this domain's pid counter. Called per cluster so replica runs
    see identical pid sequences whatever domain executes them. *)

val alive : t -> bool
(** [true] until the process finishes or is killed. *)

val status : t -> exit option
(** [Some e] once the process has terminated. *)

val kill : t -> unit
(** Terminate the process. Idempotent. See the module comment for the
    running-process case. *)

val pause : t -> unit
(** Stop the process advancing: any wake-up (timer expiry, message
    arrival, ...) arriving while paused is deferred instead of delivered.
    This is the mechanism beneath freezing a logical host (Section 3.1):
    execution of its processes is suspended while the rest of the
    simulation continues. Idempotent. *)

val unpause : t -> unit
(** Resume a paused process, delivering a deferred wake-up if one arrived
    during the pause. Idempotent. *)

val on_exit : t -> (exit -> unit) -> unit
(** Register a hook run when the process terminates (immediately if it
    already has). *)

val suspend : ((unit -> unit) -> (unit -> unit)) -> unit
(** [suspend register] blocks the calling process. [register wake] must
    arrange for [wake ()] to be called when the process should resume and
    return a cleanup that deregisters the wake source; the cleanup runs if
    the process is killed first. Calling [wake] more than once is safe.
    This is the primitive from which all blocking operations are built. *)

val sleep : Engine.t -> Time.span -> unit
(** Block the calling process for a virtual duration. *)

val join : t -> exit
(** Block until the process terminates and return how. Returns immediately
    if it already has. *)
