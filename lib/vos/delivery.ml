type origin = Local | Remote of Addr.t

type t = {
  src : Ids.pid;
  dst : Ids.pid;
  txn : Packet.txn;
  msg : Message.t;
  origin : origin;
}
