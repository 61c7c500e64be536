(** Monomorphic hash tables keyed by [int].

    A polymorphic [Hashtbl] probe on an int key pays for the generic
    [caml_hash] walk and a polymorphic [compare]; these two instances
    compare with [Int.equal] and differ only in how they hash.

    - {!Ordered} hashes with [Hashtbl.hash], exactly as the polymorphic
      table does when it is not randomized, so both compute the same
      bucket for every key at every size: [iter], [fold] and [copy]
      visit entries in the same order. Use it where that order reaches
      the simulation (which send a broadcast kicks first, the kill
      order at shutdown).
    - {!Direct} hashes an int as itself. Its iteration order differs
      from the polymorphic table's, so use it only for tables that are
      probed, or whose folds do not depend on order (sums, or results
      sorted before use). *)

module Ordered : Hashtbl.S with type key = int
module Direct : Hashtbl.S with type key = int
