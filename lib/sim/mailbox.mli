(** Unbounded FIFO message queues between simulated processes.

    Per-process message queues in the V kernel (Section 3.1.3: requests to
    a frozen logical host are "queued for the recipient process") are built
    on these. Senders never block; receivers block until a message is
    available. *)

type 'a t
(** A queue of ['a] messages. *)

val create : unit -> 'a t
(** A fresh empty mailbox. *)

val send : 'a t -> 'a -> unit
(** Enqueue a message, waking the longest-blocked receiver if any. *)

val recv : 'a t -> 'a
(** Dequeue the oldest message, blocking the calling process while the
    mailbox is empty. *)

val recv_timeout : Engine.t -> 'a t -> Time.span -> 'a option
(** Like {!recv} but gives up after a virtual duration, returning [None].
    This is the primitive beneath IPC retransmission timers. *)

val length : 'a t -> int
(** Messages currently queued. *)

val drain : 'a t -> 'a list
(** Remove and return all queued messages, oldest first. Used when a
    migrated logical host's old copy is deleted and its queued messages
    are discarded (Section 3.1.3). *)
