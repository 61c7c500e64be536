type dst = Unicast of Addr.t | Broadcast | Multicast of int

type 'p t = { src : Addr.t; dst : dst; bytes : int; payload : 'p }

let unicast ~src ~dst ~bytes payload = { src; dst = Unicast dst; bytes; payload }
let broadcast ~src ~bytes payload = { src; dst = Broadcast; bytes; payload }

let multicast ~src ~group ~bytes payload =
  { src; dst = Multicast group; bytes; payload }
