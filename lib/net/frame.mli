(** Network frames.

    A frame carries an opaque payload of the protocol layer's choosing
    (the V kernel defines its packet type on top); the network only needs
    the source, destination and size to model timing and delivery. *)

type dst =
  | Unicast of Addr.t
  | Broadcast  (** Delivered to every attached station except the sender. *)
  | Multicast of int
      (** Delivered to stations subscribed to the group id — carries the
          V process-group queries of Section 2.1. *)

type 'p t = {
  src : Addr.t;
  dst : dst;
  bytes : int;  (** On-the-wire size, header included. *)
  payload : 'p;
}

val unicast : src:Addr.t -> dst:Addr.t -> bytes:int -> 'p -> 'p t
val broadcast : src:Addr.t -> bytes:int -> 'p -> 'p t
val multicast : src:Addr.t -> group:int -> bytes:int -> 'p -> 'p t
