(** Online invariant monitors over the typed trace stream.

    One {!attach} call subscribes a bundle of protocol monitors to a
    tracer. Each monitor is an incremental automaton fed every record as
    it is emitted — including records later evicted from the ring — and
    files a {!violation} the instant a property breaks, capturing the
    surrounding event window eagerly (the ring may have evicted it by
    the time the run ends).

    The catalog (see DESIGN.md §4d for the paper claims each encodes),
    with each monitor's cost per inspected event and the state it keeps.
    No monitor hashes a string or a tuple per event, and the common path
    allocates nothing:

    - {b clock}: event timestamps are monotone and sequence numbers
      dense — the simulation never observes time running backwards.
      O(1), two words of state.
    - {b conservation}: every delivered frame names a prior send on the
      same segment, no frame is delivered twice to one station, no
      delivery targets a station that has detached (crashed), and a
      frame whose delivery has ended is never delivered again. Ethernet
      delivers a frame to all its recipients inside one engine event,
      so a frame's deliveries form one run on its segment; a delivery
      naming another frame ends the open run for good. O(1) (bit tests
      and one array slot). State per segment: 2 bits per frame id (sent,
      finished; frame ids are dense per segment), one attached bit per
      station address, and the recipient set of the frame in delivery
      (one run stamp per station address). Segment labels must be
      non-negative.
    - {b convergence}: within one migration attempt, per-round pre-copy
      byte counts never increase (Section 3.1.2's termination argument).
      O(1) int-keyed probe; one entry per logical host ever migrated.
    - {b freeze}: no CPU slice is served to a logical host between its
      [Lh_frozen] and [Lh_unfrozen] events (Section 3.1.1's "frozen"
      really means no guest progress). O(1); a slice skips the lookup
      when nothing is frozen. One entry per logical host frozen now.
    - {b residual}: after [Mig_committed], the old host's copy of the
      logical host is never heard from again — no request delivery, no
      forwarding, no page-fault service, no lifecycle event names
      (old host, lh) (Section 5's no-residual-dependencies claim; the
      Demos/MP forwarding ablation and the copy-on-reference strategy
      deliberately violate it). O(1) int-keyed probe plus a scan of that
      logical host's banned hosts; skipped when nothing is banned. One
      entry per logical host that migrated, listing the hosts it left.
    - {b budget}: a migration attempt that declares a freeze budget
      ([Mig_budget]) must commit with [Mig_committed.freeze] within it —
      the budgeted-abort machinery really does bound the freeze window,
      it does not merely report overruns. O(1); one entry per attempt in
      flight.
    - {b dedup}: every content-transfer manifest is followed by one
      chunk-hit and one chunk-miss record on the same host that split
      its chunk, byte and digest counts exactly. O(1) probe keyed by
      host name (manifest records are rare); one entry per host with a
      manifest pending. *)

type violation = {
  vi_monitor : string;  (** Catalog name, e.g. ["residual"]. *)
  vi_at : Time.t;  (** Virtual instant of the offending event. *)
  vi_seq : int;  (** Sequence number of the offending event. *)
  vi_detail : string;  (** What broke, with the key values inline. *)
  vi_window : Tracer.record list;
      (** The offending event and up to 32 predecessors, oldest first,
          captured at detection time. *)
}

type t

val attach : Tracer.t -> t
(** Subscribe the monitor bundle. Records already retained in the ring
    are replayed first (so attaching right after cluster creation sees
    the boot-time attach events); attach before any frames have been
    evicted. *)

val violations : t -> violation list
(** In detection order. At most 16 are retained; see {!dropped}. *)

val dropped : t -> int
(** Violations beyond the retention cap, counted but not stored. *)

val events_seen : t -> int

val ok : t -> bool

val monitor_names : string list
(** The catalog, in a fixed order. *)

val coverage : t -> (string * int) list
(** How many events each monitor actually inspected (not merely saw go
    by), in {!monitor_names} order. A fuzz run uses this to prove every
    monitor was exercised, not just attached. *)

val pp_violation : Format.formatter -> violation -> unit
(** Multi-line: header plus the captured event window. *)
