(** Requests as delivered to a receiving process.

    A delivery is what [Receive] hands a server: who sent it, which id it
    was addressed to (relevant for kernel-server and program-manager
    requests, which are addressed through a logical host's local group
    id), the transaction the eventual [Reply] must close, and where the
    request physically came from — the origin decides how the sender is
    prodded when the recipient's logical host migrates (Section 3.1.3:
    local senders restart their send; remote senders just retransmit). *)

type origin =
  | Local  (** Sender runs under the same kernel. *)
  | Remote of Addr.t  (** Station the request frame arrived from. *)

type t = {
  src : Ids.pid;
  dst : Ids.pid;  (** As addressed — may be a local-group id. *)
  txn : Packet.txn;
  msg : Message.t;
  origin : origin;
}
