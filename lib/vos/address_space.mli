(** Address spaces with per-page dirty bits.

    Migration copies address spaces, and the pre-copy algorithm's whole
    game is the set of pages dirtied while a copy is in flight, "detected
    using dirty bits" (Section 3.1.2). We model an address space as its
    page-granular dirty state plus segment sizes; page {e contents} never
    matter to any measured behaviour, so none are stored.

    Segments matter because pre-copy's first pass moves code and
    initialized data — "portions that are never modified" — while the
    program runs (Section 3.1.2's worked example). *)

type segment = Code | Initialized_data | Active_data

type t

val create :
  ?page_bytes:int ->
  ?image:string ->
  code_bytes:int ->
  data_bytes:int ->
  active_bytes:int ->
  unit ->
  t
(** Sizes are rounded up to whole pages. [page_bytes] defaults to 1024,
    the V SUN page size we simulate throughout. [image] names the
    program image backing the code/data segments (defaults to [""],
    anonymous) — it keys the content digests of never-written pages so
    they dedup against the file server's image chunks. *)

val page_bytes : t -> int
val pages : t -> int
(** Total pages across all segments. *)

val bytes : t -> int
(** Total size in bytes. *)

val segment_pages : t -> segment -> int

val touch : t -> int -> unit
(** [touch t p] marks page [p] dirty (a store hit it).
    @raise Invalid_argument if [p] is out of range. *)

val touch_random_in :
  t -> Rng.t -> segment -> first:int -> count:int -> unit
(** Dirty a page chosen uniformly from a window of a segment — the
    primitive workload dirty-models are built on. [first]/[count] are
    page offsets within the segment. *)

val is_dirty : t -> int -> bool

val page_digest : t -> int -> Pagehash.t
(** Content digest of a page's current bytes: image-chunk digest for a
    never-written code/data page of an image-backed space, the zero
    page for an untouched active page, and a (space, page, version)
    digest after any write. Deterministic — a pure function of the
    space's id, image, and write history.
    @raise Invalid_argument if the page is out of range. *)

val source_page_digest : t -> int -> Pagehash.t
(** Like {!page_digest}, but at the page's write version as of the last
    {!evict_all} — the content a copy-on-reference source still
    retains. A first-touch fault bumps the local version {e before} the
    page is pulled, so the content crossing the wire is the baseline
    one; identical to {!page_digest} when residency is not tracked.
    @raise Invalid_argument if the page is out of range. *)

val dirty_count : t -> int
(** Number of pages currently dirty. *)

val dirty_bytes : t -> int

val iter_dirty : t -> (int -> unit) -> unit
(** Iterate the dirty page indices in ascending order. *)

val snapshot_dirty : t -> int list
(** Indices of dirty pages, ascending (prefer {!iter_dirty} on hot
    paths). *)

val reset_ids : unit -> unit
(** Reset this domain's address-space id counter. Ids are allocated from
    a domain-local counter; {!Cluster.create} resets it so every replica
    sees the same id sequence regardless of the domain it runs on. *)

val clear_dirty : t -> int
(** Clear all dirty bits, returning how many were set — one pre-copy
    round is "copy [clear_dirty] worth of pages, while new dirtying
    accumulates". *)

val fill_all_dirty : t -> unit
(** Mark every page dirty — the state of a freshly loaded program before
    its first full copy. *)

(** {1 Copy-on-reference residency}

    A copy-on-reference migration installs the space with every page
    absent; the first touch of an absent page marks it resident and
    queues a fault, and the owning process drains the queue by pulling
    the pages from the source host. When no pages were ever evicted the
    machinery costs nothing (no bitmap is allocated). *)

val evict_all : t -> unit
(** Mark every page absent and forget queued faults — the destination's
    view of a freshly copy-on-reference-installed space. *)

val make_all_resident : t -> unit
(** Drop residency tracking entirely (all pages local, no faults
    pending) — applied when a space is extracted for migration, since
    whatever copy discipline moves it next accounts for every page. *)

val pending_faults : t -> int
(** Number of queued faulted pages. *)

val take_pending_faults : t -> (int -> unit) -> unit
(** Apply the function to each queued faulted page index in touch order
    and clear the queue. The caller owes the source host one page
    transfer each. *)
