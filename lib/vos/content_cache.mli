(** Bounded per-host content cache: an LRU over page/chunk digests.

    A host that has recently received (or shipped) a page remembers its
    digest; a later transfer whose manifest names that digest skips the
    bytes. Entries carry the byte count they stand for and the byte
    budget bounds their sum — the simulator's stand-in for pinning real
    cache memory. All operations are O(1) except {!digests}/{!clear}.

    A budget of 0 (the {!Os_params} default) disables the cache: every
    probe misses and nothing is ever stored, so default-configured runs
    ship exactly the bytes they always did. *)

type t

val create : budget:int -> t
(** [budget] is the maximum total bytes of cached content; [<= 0]
    disables the cache. *)

val budget : t -> int

val enabled : t -> bool
(** [budget t > 0]. *)

val probe : t -> digest:int -> bytes:int -> bool
(** [probe t ~digest ~bytes] is the one-shot dedup step: [true] (hit —
    the host already holds content with this digest; recency is
    refreshed), or [false] (miss — the content will now be shipped, so
    it is inserted, evicting LRU entries past the budget). *)

val mem : t -> int -> bool
(** Membership without touching recency. *)

val insert : t -> digest:int -> bytes:int -> unit
(** Record that the host now holds this content (refreshes recency if
    already present; evicts past the budget). An entry larger than the
    whole budget is not stored. *)

val bytes : t -> int
(** Current sum of entry sizes; invariant [bytes t <= max 0 (budget t)]. *)

val entries : t -> int

val clear : t -> unit
(** Forget everything — a crashed host loses its cache with its RAM. *)

val digests : t -> int list
(** Entries in most- to least-recently-used order, for tests. *)
