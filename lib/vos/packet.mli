(** Kernel-to-kernel wire packets.

    Everything the V kernels exchange on behalf of processes: request and
    reply packets for the Send/Receive/Reply cycle, the "reply-pending"
    packets that keep a blocked sender from timing out while its
    correspondent is busy — or frozen mid-migration (Section 3.1.3) — and
    the broadcast query/answer pair that rebinds a logical host to its new
    physical host after migration (Section 3.1.4). *)

type txn = int
(** Transaction ids pair retransmissions and replies with the original
    send, and let receivers suppress duplicates. *)

type t =
  | Request of { txn : txn; src : Ids.pid; dst : Ids.pid; msg : Message.t }
      (** Carries one Send. Retransmitted by the source kernel until a
          [Reply] or abandonment. *)
  | Reply of { txn : txn; src : Ids.pid; msg : Message.t }
      (** The matching reply, re-sent from the replier's cache when a
          duplicate [Request] indicates the first copy was lost. *)
  | Reply_pending of { txn : txn }
      (** "Still working on it" — resets the sender's abandonment clock
          without completing the send. *)
  | Group_request of {
      txn : txn;
      src : Ids.pid;
      group : Ids.pid;
      msg : Message.t;
    }
      (** One Send addressed to a process group, multicast on the wire;
          each member kernel delivers it to local members, whose replies
          return as ordinary [Reply] packets. Unreliable (not
          retransmitted), like V group sends. *)
  | Where_is of { lh : Ids.lh_id }
      (** Broadcast: which station runs this logical host? Sent after
          repeated unanswered retransmissions invalidate a cache entry. *)
  | Here_is of { lh : Ids.lh_id; station : Addr.t }
      (** Unicast answer to [Where_is]; also broadcast unsolicited as the
          optional new-binding announcement when a migration commits. *)

val bytes : t -> int
(** Simulated wire size: protocol header plus the carried message. *)
