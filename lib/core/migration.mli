(** Logical-host migration (Section 3).

    The five-step protocol of Section 3.1, verbatim:

    + locate a willing destination (same mechanism as remote execution);
    + initialize the new host — a reservation under a {e temporary}
      logical-host id, so the new copy is addressable while both exist;
    + {e pre-copy} the address-space state while the program runs:
      one full copy, then repeated copies of the pages dirtied during the
      previous round, until the residue is small or stops shrinking;
    + freeze the logical host and complete the copy: the dirty residue,
      then the kernel-server and program-manager state
      (14 ms + 9 ms/object);
    + unfreeze the new copy, delete the old one, and let reference
      rebinding happen through the binding-cache machinery (plus an eager
      broadcast announcement).

    Failure of the destination mid-transfer is detected by the acked
    transfer steps. A failed attempt undoes what its stage did: before
    the freeze it cancels the reservation; while frozen it unfreezes,
    then cancels; after extract it re-installs the logical host locally,
    then unfreezes — unless the source crashed meanwhile, taking that
    copy with it. The attempt is then abandoned or retried per
    {!Config.migration_retries} (the paper gives up after one attempt).
    A retry re-runs host selection with every already-failed destination
    excluded, so a crashed host that is still being advertised by stale
    bindings cannot be picked twice.

    The copy discipline is pluggable ({!Protocol.strategy}): every strategy
    shares steps 1, 2, 4's freeze + kernel-state copy, and step 5's
    extract/install/rebind. A strategy picks one of three freeze plans —
    what the freeze window must move: the pages dirtied since the last
    pre-copy round, the whole image, or nothing — and step 3 runs only
    for the first; beyond that, only what is left owing afterwards
    differs. Every copy, running or frozen, is one transfer step: a
    content manifest when caching is on, then the bytes the destination
    still needs. [Precopy] is the paper's contribution;
    [Freeze_and_copy] is the naive scheme it argues against (freeze for
    the entire copy); [Copy_on_reference] is the Accent/Demos-style
    scheme that moves only kernel state and faults pages from the source
    on first touch (deliberately creating the residual dependencies the
    paper rejects); and [Vm_flush] is the Section 3.2 variant that
    flushes dirty pages to a network page server and lets the new host
    demand-fault them in. *)

type error =
  | No_host of string  (** Nobody volunteered. *)
  | Refused of string  (** Destination declined the reservation/install. *)
  | Transfer_failed of string  (** Destination died mid-migration. *)
  | Budget_exceeded of string
      (** The configured {!Config.budget} would be (or was) blown:
          aborted rather than stretch the copy phase or freeze window. *)

val pp_error : Format.formatter -> error -> unit

(** Typed phase-transition events, one per protocol step. Rounds number
    from 1 (the initial full copy) and are emitted as each round's
    acknowledgement lands; the emitted [bytes] sequence is non-increasing
    (the paper's convergence claim, checked online by v_check).
    [Mig_committed] carries the actual freeze window; every failure path
    emits [Mig_aborted] instead. A retry or budget reselection shows as
    [Mig_aborted] followed by a fresh [Mig_start] for the same [lh]. *)
type Tracer.event +=
  | Mig_start of {
      lh : Ids.lh_id;
      prog : string;
      from_host : string;
      strategy : string;
    }
  | Mig_budget of { lh : Ids.lh_id; freeze : Time.span; transfer : Time.span }
      (** Declared right after [Mig_start] when a budget applies; the
          freeze-budget monitor holds [Mig_committed.freeze] to it. *)
  | Mig_dest of { lh : Ids.lh_id; dest : string }
  | Mig_round of { lh : Ids.lh_id; round : int; bytes : int; span : Time.span }
  | Mig_frozen_residue of { lh : Ids.lh_id; bytes : int }
  | Mig_committed of {
      lh : Ids.lh_id;
      from_host : string;
      dest : string;
      freeze : Time.span;
    }
  | Mig_aborted of { lh : Ids.lh_id; reason : string }

val migrate :
  ?health:Health.t ->
  kernel:Kernel.t ->
  cfg:Config.t ->
  self:Ids.pid ->
  program:Progtable.program ->
  ?dest:Scheduler.selection ->
  strategy:Protocol.strategy ->
  unit ->
  (Protocol.migration_outcome, error) result
(** Run the full protocol from the program's current host. Must be
    called from a simulated process on that host (the program manager
    spawns a migration manager per request). On success the program runs
    at the destination, whose program manager owns its record from the
    install on, and the source retains nothing — no forwarding state. A
    program whose root exited while its host was in flight has its
    installed copy destroyed. On failure the program is running on the
    source exactly as before, unless the source itself crashed.

    [health] feeds destination selection
    ({!Scheduler.Spine.select_in_group}).

    When [cfg.budgeted] is set, the copy phase checks the transfer bound
    at every chunk (budgeted transfers move in 256 KB chunks) and
    predicts each pre-copy round's cost from the observed rate; the
    freeze window is gated before freezing (estimated residue +
    kernel-state time must fit), checked mid-residue, and enforced at
    the destination — an install arriving after the freeze deadline is
    refused, so [Mig_committed.freeze <= bg_freeze] is a
    hard invariant. A budget abort reselects a destination once; a send
    that fails before its deadline is a transfer failure, not a budget
    abort. The
    per-strategy profile: a 600 ms freeze bound for pre-copy,
    copy-on-reference and VM-flush, 30 s for freeze-and-copy, and a
    30 s transfer bound for all. *)

val kernel_state_span : Logical_host.t -> Time.span
(** The Section 4.1 formula: base + per-object x (processes + spaces). *)
