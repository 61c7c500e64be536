type txn = int

type t =
  | Request of { txn : txn; src : Ids.pid; dst : Ids.pid; msg : Message.t }
  | Reply of { txn : txn; src : Ids.pid; msg : Message.t }
  | Reply_pending of { txn : txn }
  | Group_request of { txn : txn; src : Ids.pid; group : Ids.pid; msg : Message.t }
  | Where_is of { lh : Ids.lh_id }
  | Here_is of { lh : Ids.lh_id; station : Addr.t }

let header_bytes = 32

let bytes = function
  | Request { msg; _ } | Reply { msg; _ } | Group_request { msg; _ } ->
      header_bytes + msg.Message.bytes
  | Reply_pending _ | Where_is _ | Here_is _ -> header_bytes
