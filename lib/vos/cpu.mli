(** Per-workstation processor scheduling.

    Each workstation has one CPU shared by every program on it. The paper
    relies on "priority scheduling for locally invoked programs" so that a
    text-editing owner "need not notice the presence of background jobs"
    (Section 2): locally invoked work runs at foreground priority, guest
    (remotely executed) work at background priority, and the foreground
    queue strictly preempts the background queue at quantum granularity.

    Compute demand is expressed by blocking calls: a process asking for
    [d] of CPU is blocked until it has actually been scheduled for [d] of
    virtual time, however long contention stretches that. *)

type priority = Foreground | Background

(** One typed trace event per completed slice, emitted before the CPU is
    released (at the same point as {!compute_sliced}'s [on_slice] hook),
    so a freeze draining the CPU observes every slice event before the
    host is reported frozen. [owner] is the logical-host tag; untagged
    (owner 0) system work is not traced. *)
type Tracer.event += Slice of { owner : int; foreground : bool; span : Time.span }

type t

val create : ?tracer:Tracer.t -> Engine.t -> quantum:Time.span -> t

val compute :
  ?owner:int ->
  ?gate:(unit -> unit) ->
  ?must_release:(unit -> bool) ->
  t ->
  priority:priority ->
  Time.span ->
  unit
(** Consume CPU from within a simulated process, blocking until served.
    Work is sliced into quanta; equal-priority requests round-robin,
    foreground requests strictly preempt background ones at quantum
    boundaries (the paper's owner-shield behaviour, observable in the
    usage experiment), and a lone request keeps the CPU across its
    quanta. Zero or negative demand returns immediately.

    [owner] tags the request (logical-host id) so {!wait_clear} can drain
    it; [gate] is called before acquiring the CPU and may block; and
    [must_release], polled at each slice boundary, forces the request off
    the CPU — the freeze mechanism passes a gate that blocks while the
    logical host is frozen and a [must_release] that fires when a freeze
    begins. *)

val compute_sliced :
  owner:int ->
  gate:(unit -> unit) ->
  must_release:(unit -> bool) ->
  t ->
  priority:priority ->
  Time.span ->
  on_slice:(Time.span -> unit) ->
  next:(Time.span -> Time.span) ->
  unit
(** Like {!compute} but invokes [on_slice served] at the end of each
    scheduled slice, before the CPU is released — the hook through which
    workloads dirty pages in proportion to CPU actually received, ordered
    so that a freeze draining the CPU observes the dirtying.

    A quantum is a timer event, not a process switch. The caller
    acquires the CPU and suspends; while it keeps the CPU, the slice
    timer accounts each slice and starts the next itself, and the
    caller is resumed only to release the CPU. When the demand is
    served and nothing is queued for the CPU, no drain waits and
    [must_release ()] is false, the timer calls [next served] — the
    caller's between-quanta step. A positive result is a further
    demand; returning it, the step has done what the caller would do
    between two calls, and it must not block. The CPU serves that demand
    as if the caller had released and re-acquired it. [Time.zero] ends
    the call. The hooks run inside the timer, and an exception they
    raise is re-raised in the caller. [must_release] is polled at each
    slice end before [on_slice]; a request that must release has its
    slice accounted in its own process, so a process paused by a freeze
    accounts it only once thawed. A process holding the CPU must not be
    paused while its [must_release ()] is false.

    Every argument is required: a program calls this once per hold of
    the CPU, and passing optional arguments would box each one per
    call. A call allocates its run record and three closures; a slice
    chained by the timer allocates nothing. *)

val set_slowdown : t -> float -> unit
(** [set_slowdown t f] makes every subsequent quantum of work take [f]
    times as long in wall time (work accomplished per slice, and hence
    page dirtying, is unchanged) — the straggler injection hook of the
    fault plans. [f = 1.0] restores nominal speed; [f < 1.0] raises
    [Invalid_argument]. Takes effect from the next scheduled slice. *)

val wait_clear : t -> owner:int -> unit
(** Block until no request tagged [owner] holds the CPU. Freezing a
    logical host drains its member currently on the CPU this way before
    snapshotting state (Section 3.1.3). *)

val busy_fraction : t -> float
(** Fraction of virtual time the CPU has been running anything since
    creation — drives the idle-workstation statistics of Section 4.3. *)

val queue_length : t -> int
(** Requests currently waiting or running. *)
