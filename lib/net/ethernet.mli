(** Shared 10 Mbit Ethernet segment.

    The cluster in the paper hangs off a single 10 Mbit Ethernet. We model
    the half-duplex shared medium as a FIFO resource: a frame occupies the
    wire for [bytes / bandwidth]; a frame offered while the wire is busy
    waits its turn (a deterministic stand-in for CSMA/CD backoff, adequate
    at the utilizations the paper reports). Frames are lost independently
    with a configurable probability — the reliability machinery of the V
    IPC layer (retransmission, reply-pending) is exercised against real
    losses, as Section 3.1.3's correctness argument requires. *)

type config = {
  bandwidth_bytes_per_sec : int;  (** Wire rate; 10 Mbit/s = 1 250 000. *)
  loss_probability : float;  (** Independent per-frame loss. *)
}

val default_config : config
(** 10 Mbit/s, no loss. *)

val propagation : Time.span
(** Wire end-to-end latency: 5 us. *)

val min_frame_bytes : int
(** 64: small frames are padded, as on Ethernet. *)

val max_frame_bytes : int
(** 1536: larger sends must be fragmented by callers. *)

type 'p t
(** A segment carrying frames with payloads of type ['p]. *)

type 'p station
(** One attached host interface. *)

(** {1 Typed trace events}

    [seg] names the segment ({!create}'s [seg] label); [frame] is a
    per-segment transmission id, fresh per wire occupation — a bridged
    relay re-sends under a new id on the peer segment, so within one
    segment every [Frame_delivered] names an earlier [Frame_sent]
    (message conservation, checked online by the v_check monitors).
    Deliveries are emitted per recipient, before the receive callback
    runs, and only for stations still attached at delivery time. *)
type Tracer.event +=
  | Frame_sent of {
      seg : int;
      frame : int;
      src : Addr.t;
      dst : Frame.dst;
      bytes : int;
    }
  | Frame_dropped of {
      seg : int;
      frame : int;
      src : Addr.t;
      dst : Frame.dst;
      bytes : int;
    }
  | Frame_delivered of { seg : int; frame : int; dst : Addr.t }
  | Station_attached of { seg : int; addr : Addr.t }
  | Station_detached of { seg : int; addr : Addr.t }

val create : ?config:config -> ?tracer:Tracer.t -> ?seg:int -> Engine.t -> Rng.t -> 'p t
(** A fresh segment. The RNG drives loss decisions only. [tracer]
    receives the typed events above; [seg] (default 0) labels them.
    Bulk occupations ({!occupy}) are not framed and emit nothing. *)

val engine : 'p t -> Engine.t
val config : 'p t -> config

val set_loss : 'p t -> float -> unit
(** Change the loss probability mid-run (failure injection). Applies to
    this segment {e and} every directly bridged peer segment, so a
    cluster-wide loss window behaves uniformly. *)

val loss : 'p t -> float
(** This segment's current loss probability. *)

val attach : 'p t -> Addr.t -> ('p Frame.t -> unit) -> 'p station
(** [attach t addr rx] connects a station; [rx] runs at delivery time for
    every frame addressed to it. Raises [Invalid_argument] if [addr] is
    already attached. *)

val detach : 'p station -> unit
(** Disconnect; models a host crash or reboot — in-flight frames to it are
    silently dropped, exactly what migration's failure path must survive. *)

val attached : 'p station -> bool

val subscribe : 'p station -> int -> unit
(** Join a multicast group (well-known process groups ride on these). *)

val unsubscribe : 'p station -> int -> unit

val send : 'p t -> 'p Frame.t -> unit
(** Queue a frame for transmission. Asynchronous: returns immediately;
    delivery callbacks fire when the frame clears the wire. Frames above
    {!max_frame_bytes} raise [Invalid_argument]. *)

(** {1 Bridged segments}

    The paper's system lives on "one (logical) local network", and its
    Section 6 lists an internet version as work in progress. We model the
    first step: two segments joined by a store-and-forward bridge that
    relays every frame (so the cluster still behaves as one logical
    network) after a forwarding delay, with the frame occupying {e both}
    wires. Broadcast and multicast cross the bridge, so the V rebinding
    and selection machinery keeps working cluster-wide. *)

val bridge : 'p t -> 'p t -> forward_delay:Time.span -> unit
(** Join two segments bidirectionally. Only a single bridge hop is
    supported (frames are never re-forwarded), i.e. topologies are stars
    of at most two segments per path. *)

val sever_bridge : 'p t -> 'p t -> unit
(** Take the bridge between two segments down (network partition): no
    frames cross in either direction until {!heal_bridge}. Frames already
    queued at the bridge when it goes down are dropped. Unbridged pairs
    are a no-op. *)

val heal_bridge : 'p t -> 'p t -> unit
(** Bring a severed bridge back up. Senders re-establish contact through
    the normal retransmission / [Where_is] machinery — the bridge itself
    holds no state to recover. *)

val locate : 'p t -> Addr.t -> [ `Local | `Peer of 'p t * Time.span | `Unknown ]
(** Where a station lives relative to this segment — [`Peer] carries the
    remote segment and the bridge delay. Bulk-transfer pacing uses this
    to occupy both wires for cross-segment copies. *)

val occupy : ?not_before:Time.t -> 'p t -> bytes:int -> Time.t * bool
(** [occupy t ~bytes] reserves the medium for one data frame of a bulk
    transfer without delivering a payload, returning the virtual instant
    the frame clears the wire and whether it was lost. Bulk copies
    ({!Transfer}) use this so multi-megabyte address-space copies cost
    thousands of events rather than typed deliveries. [not_before] delays
    the reservation — how a bridged copy occupies the far segment only
    once the frame has actually arrived there. *)

val wire_time : 'p t -> int -> Time.span
(** Time a frame of the given size occupies the wire (after padding). *)

val frames_sent : 'p t -> int
val frames_delivered : 'p t -> int
val frames_dropped : 'p t -> int
val bytes_carried : 'p t -> int
