(** Discrete-event simulation engine.

    The engine owns the virtual clock and an ordered queue of pending
    events. Events scheduled for the same instant fire in scheduling order
    (FIFO), which together with {!Rng} makes whole-cluster runs
    deterministic. *)

type t
(** One simulation run's clock and event queue. Events are stored in a
    pooled, flat representation: slots recycled through a free list,
    with generation counters guarding stale handles. An event posted
    with a delay ([at - now]) that owns one of a few fixed-delay lanes
    is appended to that lane's FIFO ring; any other event goes to a
    monomorphic (time, sequence) int heap. Lanes are claimed at run time
    by the delays posted while they are empty. Each lane is sorted
    because the clock never goes back, so merging the lane heads with
    the heap top fires events in exactly (time, scheduling order) —
    see the implementation notes in [engine.ml]. *)

type handle
(** A scheduled event, usable to cancel it before it fires. Handles
    carry a generation counter: cancelling a handle whose pool slot has
    since been recycled is detected and ignored. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero} and no events. *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule t ~at f] arranges for [f ()] to run at instant [at].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> handle
(** [schedule_after t d f] is [schedule t ~at:(now t + d) f]. *)

val post : t -> at:Time.t -> (unit -> unit) -> unit
(** [post t ~at f] is [schedule t ~at f] for events that will never be
    cancelled: no handle is materialized, so the fast path allocates
    nothing beyond the caller's closure. *)

val post_after : t -> Time.span -> (unit -> unit) -> unit
(** [post_after t d f] is [post t ~at:(now t + d) f]. *)

val cancel : handle -> unit
(** Prevent a pending event from firing. Cancelling a fired or already
    cancelled event is a no-op. *)

val pending : t -> int
(** Number of live events still queued. O(1): a counter maintained on
    schedule/cancel/fire, not a queue scan. *)

val step : t -> bool
(** Fire the next event, advancing the clock to its instant. Returns
    [false] when the queue is empty. *)

val run : ?until:Time.t -> ?max_steps:int -> t -> unit
(** Fire events until the queue empties, the clock would pass [until], or
    [max_steps] events have fired. With [~until], the clock is left at
    [until] (convenient for sampling at a fixed horizon). *)

val events_fired : t -> int
(** Total events fired so far — exposed for throughput benchmarks, and
    read by {!Tracer} to tell a cluster's boot from its run. *)

val lane_fired : t -> int
(** Events fired so far from a fixed-delay lane, never having entered
    the heap; at most {!events_fired}. *)
