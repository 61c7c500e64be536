(** Hash tables keyed by [int].

    A polymorphic [Hashtbl] probe on an int key pays for the generic
    [caml_hash] walk and a polymorphic [compare], and a [Hashtbl.Make]
    instance reaches its [hash] and [equal] through closure calls. This
    is one plain implementation that compares keys with [=] on [int] and
    keeps Stdlib [Hashtbl]'s layout exactly: the same power-of-two bucket
    array (at least 16), insertion at the head of a chain, an in-place
    resize to twice the buckets once the size exceeds twice the bucket
    count, and the same [reset], [copy] and [filter_map_inplace]. The two
    instances differ only in the bucket a key lands in:

    - {!Ordered} hashes with [Hashtbl.hash], exactly as the polymorphic
      table does when it is not randomized, so both compute the same
      bucket for every key at every size: [iter], [fold] and [copy]
      visit entries in the same order. Use it where that order reaches
      the simulation (which send a broadcast kicks first, the kill
      order at shutdown).
    - {!Direct} masks the key itself. Its iteration order differs from
      the polymorphic table's, so use it only for tables that are
      probed, or whose folds do not depend on order (sums, or results
      sorted before use). *)

module type S = sig
  type 'a t

  val create : int -> 'a t
  val reset : 'a t -> unit
  val copy : 'a t -> 'a t
  val length : 'a t -> int
  val find : 'a t -> int -> 'a
  val find_opt : 'a t -> int -> 'a option
  val mem : 'a t -> int -> bool
  val replace : 'a t -> int -> 'a -> unit
  val remove : 'a t -> int -> unit
  val iter : (int -> 'a -> unit) -> 'a t -> unit
  val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit
end

module Ordered : S
module Direct : S
