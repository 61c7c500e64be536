(** Suspicion-based failure detection over kernel IPC.

    A cluster-wide view of which workstations are reachable, maintained
    by one observer kernel probing every watched peer's kernel server on
    a fixed cadence. The probe timeout adapts to the observed round-trip
    time (EWMA — a phi-accrual detector simplified for deterministic
    virtual time), and the three-state view carries hysteresis:
    consecutive misses escalate [Alive -> Suspect -> Dead], and several
    consecutive hits are required to de-escalate, so a
    partition-then-heal does not flap the view.

    The view is advisory and strictly opt-in: nothing consults it unless
    a [?health] argument is threaded in ({!Scheduler}, {!Balancer},
    {!Migration}), so a cluster without a detector behaves byte-for-byte
    as before. *)

type state = Alive | Suspect | Dead

val state_name : state -> string

(** {1 Detector constants} *)

val probe_interval : Time.span
(** 500 ms: probe cadence per peer. *)

val rtt_alpha : float
(** 0.25: EWMA weight of the newest RTT sample. *)

val timeout_multiplier : float
(** 4: the probe timeout is this multiple of the RTT EWMA ... *)

val timeout_margin : Time.span
(** ... plus 5 ms, clamped to ... *)

val min_timeout : Time.span
(** ... at least 10 ms ... *)

val max_timeout : Time.span
(** ... and at most 1 s, which is also the cold-start timeout before
    any RTT sample. *)

val suspect_after : int
(** 2 consecutive misses make an [Alive] peer [Suspect]. *)

val dead_after : int
(** 4 consecutive misses make a peer [Dead]. *)

val recover_after : int
(** 2 consecutive hits return a [Suspect]/[Dead] peer to [Alive] — the
    anti-flap hysteresis. *)

type t

type Tracer.event +=
  | Health_transition of {
      observer : string;
      peer : string;
      from_ : state;
      to_ : state;
    }  (** Emitted (category ["health"]) on every state change. *)

val start : Kernel.t -> peers:(string * Ids.lh_id) list -> t
(** [start kernel ~peers] spawns one prober process per peer on
    [kernel] (conventionally the file server: fault plans only target
    workstations, so the observer itself never crashes). Each peer is
    [(host_name, host_lh_id)]; probes go to [Ids.kernel_server_of] that
    id. Probe start times are staggered deterministically across one
    interval. *)

val observer : t -> string

val is_alive : t -> string -> bool
val is_dead : t -> string -> bool
val dead_hosts : t -> string list
val suspect_hosts : t -> string list

val summary : t -> (string * state) list
(** Every watched peer with its current state, in watch order. *)

val transitions : t -> int
(** State changes observed so far. *)

val false_suspicions : t -> int
(** [Suspect -> Alive] recoveries: peers suspected but never dead. *)

val probes : t -> int
(** Total probes issued. *)
