(** Kernel timing parameters.

    Every cost the simulated kernel charges lives here: the fields of
    {!t} are the ones experiments sweep or ablate, the constants below
    them are fixed. Values are calibrated to the paper's SUN
    (10 MHz 68010) measurements; the provenance of each value is noted
    on its field or constant. Higher-level calibration (program manager,
    migration, workloads) lives in [V_core.Config]. *)

(** How references to a migrated logical host get rebound. *)
type rebind_mode =
  | Broadcast_query
      (** The paper's design: invalidate the binding-cache entry after
          unanswered retransmissions and broadcast [Where_is]; no state
          remains on the old host (Section 3.1.4). *)
  | Forwarding
      (** The Demos/MP design the paper argues against: the old host
          keeps a forwarding address and relays packets; senders never
          query. Works — until the old host reboots while a stale
          reference is outstanding (Section 5). Implemented for the
          related-work ablation bench. *)

type t = {
  local_op : Time.span;
      (** Base cost of a kernel operation / local message exchange.
          ~0.5 ms on the 68010-era V kernel. *)
  frozen_check : Time.span;
      (** Added to kernel operations to test whether the target process'
          logical host is frozen — 13 us (Section 4.1). Set to zero to
          ablate, i.e. to measure a kernel without migration support. *)
  group_lookup : Time.span;
      (** Added when a kernel server or program manager is addressed via
          its local group id — 100 us (Section 4.1). Ablatable likewise. *)
  give_up_after : Time.span;
      (** A send with no reply and no reply-pending for this long fails.
          Reply-pending packets reset this clock. *)
  rebind : rebind_mode;  (** Defaults to {!Broadcast_query}. *)
  bulk_pacing : Transfer.pacing;
      (** Frame size and per-frame host CPU charged by
          {!Kernel.bulk_transfer}. Defaults to {!Transfer.v_pacing} —
          the paper's 3 s/MByte calibration, where per-frame protocol
          cost (not the 10 Mbit wire) bounds bulk throughput. Scale-out
          experiments override it to model modern NICs, exactly as they
          override the file server's media speed. *)
  content_cache_bytes : int;
      (** Byte budget of the per-host content cache used by
          content-addressed transfer (manifest-first bulk copy, image
          chunk dedup — DESIGN.md §4k). [0] (the default) disables
          content addressing entirely: no digests are computed, no
          manifests are exchanged, and every transfer ships full bytes
          exactly as the paper's calibration measures. *)
}

val default : t

(** {1 Fixed calibration}

    Kernel constants no experiment varies. *)

val retransmit_interval : Time.span
(** 100 ms: the source kernel retransmits an unanswered request after
    this initial interval. *)

val retransmit_backoff : float
(** ×2: each consecutive unanswered retransmission doubles the interval
    (exponential backoff), so a loss burst or dead correspondent does
    not flood the shared wire. Any answer — a reply or a reply-pending —
    resets the interval to {!retransmit_interval}. *)

val retransmit_cap : Time.span
(** 800 ms: upper bound on the backed-off retransmission interval,
    keeping recovery latency bounded once the correspondent returns. *)

val retries_before_query : int
(** 3: unanswered attempts tolerated before the binding-cache entry is
    invalidated and a [Where_is] broadcast goes out (Section 3.1.4: "a
    small number of retransmissions"). *)

val reply_cache_ttl : Time.span
(** 2 s: how long a replier retains a reply for duplicate requests; each
    duplicate request refreshes it (Section 3.1.3). *)

val reservation_ttl : Time.span
(** 15 s: how long a migration destination holds a {!Kernel.reserve_lh}
    reservation with no traffic addressed to it before releasing the
    memory — the recovery path for a source that crashes mid-pre-copy
    and never installs. Every request addressed through the reserved id
    (each copy round's acknowledgement ping) refreshes the clock, so a
    healthy in-progress migration never expires. *)

val cpu_quantum : Time.span
(** 10 ms: scheduler time slice for compute-bound processes. *)
