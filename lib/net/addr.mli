(** Ethernet station addresses.

    The paper's hosts are identified on the wire by 48-bit Ethernet
    addresses (Section 4.1 notes the 32-bit process-id to 48-bit host
    address mapping). We model an address as a small integer assigned by
    the cluster builder; the width never matters to the protocols. *)

type t
(** A station address. *)

val of_int : int -> t
(** [of_int n] with [n >= 0]. *)

val to_int : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Rendered like ["station-3"]. *)

val to_string : t -> string
