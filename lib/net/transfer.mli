(** Bulk data transfers.

    The V kernel moves address spaces with inter-host [CopyTo]/[CopyFrom]
    operations that blast sequences of packets (the paper: "V routinely
    transfers 32 kilobytes or more as a unit over the network", and bulk
    copy runs at about 3 seconds per megabyte). This module models such a
    transfer: the calling simulated process is blocked for the duration,
    the shared medium is occupied frame by frame (so concurrent traffic
    contends realistically), lost frames are retransmitted, and a per-frame
    CPU cost paces the sender — that CPU cost, not the 10 Mbit wire, is
    what limits V to ~0.33 MB/s, and it is the calibration knob for the
    paper's measured copy rate. *)

type pacing = {
  data_frame_bytes : int;  (** Payload bytes carried per data frame. *)
  per_frame_cpu : Time.span;
      (** Protocol/processing cost per frame at the hosts; paces frames
          and bounds effective throughput. *)
}

val v_pacing : pacing
(** Calibrated so that [rate ~pacing:v_pacing ...] with the default
    Ethernet config reproduces the paper's 3 s/MByte (Section 4.1). *)

val duration : config:Ethernet.config -> pacing:pacing -> bytes:int -> Time.span
(** Closed-form transfer time on an idle network with no loss — used by
    planners and as a test oracle for {!bulk_copy}. *)

val seconds_per_megabyte : config:Ethernet.config -> pacing:pacing -> float
(** Effective bulk rate implied by [duration], for reporting. *)

val bulk_copy :
  ?pacing:pacing -> ?dst:Addr.t -> 'p Ethernet.t -> bytes:int -> unit
(** Perform a transfer of [bytes] from within a simulated process,
    blocking it until the last frame (and retransmissions of any lost
    frames) has cleared the wire. When [dst] lives on a bridged segment,
    each frame also occupies the far wire after the bridge delay. A
    zero-byte copy returns immediately, without suspending.

    The process sends the first frame and suspends once for the whole
    copy: each frame's pacing timer sends the next frame itself, and
    the last pace resumes the process when the tail has landed — at
    once, or by one more timer when a bridge still carries it. Killing
    the process stops the frames. The timer does not know the
    process, so the caller must be one that is never paused
    ({!Proc.pause}). The callers of [Kernel.bulk_transfer] — the kernel
    server, the file server, migration in a program manager and the
    copy-rate experiment's shell — run in logical hosts that are never
    frozen. *)
