(** V process control blocks.

    A V process pairs an identifier with the green thread executing its
    code and the queue of requests awaiting its [Receive]. The thread is
    attached after creation because the paper's program-creation protocol
    makes a new process exist {e before} it runs (it is created "awaiting
    reply from its creator", Section 2.1). *)

type t

val create : Ids.pid -> t

val pid : t -> Ids.pid

val attach_thread : t -> Proc.t -> unit
(** Associate the executing green thread. At most once. *)

val thread : t -> Proc.t option

val inbox : t -> Delivery.t Mailbox.t
(** Requests delivered by the kernel, consumed by [Receive]. *)

val kill : t -> unit
(** Terminate the thread, if attached. *)

val pause : t -> unit
(** Freeze-support: stop the thread advancing (see {!Proc.pause}). *)

val unpause : t -> unit
