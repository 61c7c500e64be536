(** Declarative fault injection.

    The paper's recovery story is stated, not measured: a copy that
    "fails due to lack of acknowledgement" aborts the migration, stale
    bindings are re-queried, reservations are abandoned. This module
    makes those paths exercisable: a {e plan} is a seeded, deterministic
    schedule of fault events compiled onto the simulation engine at
    cluster creation ([Cluster.create ?faults]), so a scenario with a
    mid-migration destination crash, a lossy window, and a bridge
    partition replays identically under one seed.

    Events:
    - [Crash_host]: the workstation's kernel is shut down — station
      detached, resident processes killed, volatile state lost.
    - [Reboot_host]: a previously crashed workstation cold-boots; its
      machine services are recreated, its former guests are gone.
    - [Loss_window]: cluster-wide frame-loss probability [p] between
      [start] and [stop], then back to the configured base loss.
    - [Partition_bridge]: the inter-segment bridge drops every frame
      between [start] and [stop] (no-op on unbridged clusters).
    - [Slow_host]: the workstation's CPU runs [factor] times slower
      between [start] and [stop] — a straggler, not a failure.
    - [Flaky_host]: seeded intermittent churn — the workstation crashes
      and reboots repeatedly between [start] and [stop] (down 0.3–1.5 s,
      up 0.5–2.5 s, derived deterministically from the host name), and
      always ends the window up.
    - [Crash_rack]: a correlated failure — every listed host crashes at
      the same instant, the way a rack power or switch loss takes out a
      group at once.

    Every fired event is traced under category ["fault"]. *)

type event =
  | Crash_host of { host : string; at : Time.t }
  | Reboot_host of { host : string; at : Time.t }
  | Loss_window of { p : float; start : Time.t; stop : Time.t }
  | Partition_bridge of { start : Time.t; stop : Time.t }
  | Slow_host of { host : string; factor : float; start : Time.t; stop : Time.t }
  | Flaky_host of { host : string; start : Time.t; stop : Time.t }
  | Crash_rack of { hosts : string list; at : Time.t }

type plan = event list

val all_kinds : string list
(** Every clause keyword the parser knows, in a fixed order. *)

val declared_kinds : plan -> string list
(** The distinct kinds a plan uses, sorted — coverage reports compare
    these against {!fired_counts}. *)

val pp_plan : Format.formatter -> plan -> unit
(** Canonical rendering: exactly the [--faults] clause syntax, so
    [parse (Format.asprintf "%a" pp_plan plan) = Ok plan] for any valid
    plan (times print at full microsecond precision). *)

val parse : string -> (plan, string) result
(** Parse the [--faults] command-line syntax: ';'-separated clauses,
    times in virtual seconds.

    {v
crash:ws2@4.5            crash host ws2 at t=4.5s
reboot:ws2@9             reboot it at t=9s
loss:0.02@2-10           2% frame loss from t=2s to t=10s
partition@3-6            sever the bridge from t=3s to t=6s
slow:ws1x4@0-20          ws1 runs 4x slower from t=0s to t=20s
flaky:ws1@2-10           ws1 churns (crash/reboot) from t=2s to t=10s
crashrack:ws1+ws2+ws3@4  ws1, ws2 and ws3 all crash at t=4s
    v}

    Validation is strict and the messages say how to fix the clause:
    negative times, backwards or empty windows ([stop <= start]),
    slowdown factors below 1, loss probabilities outside [0,1], and
    single-host rack crashes are all rejected. *)

(** How plan events act on the world. {!install} cannot know the cluster
    (the cluster is built around its fault plan), so each action is a
    callback the cluster wires to the right subsystem. *)
type hooks = {
  h_crash : string -> unit;
  h_reboot : string -> unit;
  h_loss : float -> unit;  (** Set the cluster-wide frame-loss probability. *)
  h_base_loss : unit -> float;
      (** The {e configured} base probability, restored when a loss
          window closes (not the live value, which the window itself
          changed). *)
  h_partition : up:bool -> unit;
      (** Sever ([up:false]) or heal ([up:true]) the inter-segment
          bridge. *)
  h_slow : string -> float -> unit;
      (** Set a host's CPU slowdown factor; [1.0] restores nominal. *)
}

(** Typed trace event, one per injected action (window edges included). *)
type Tracer.event += Fault_injected of { kind : string; detail : string }

type t
(** An installed plan. *)

val install : Engine.t -> Tracer.t -> hooks -> plan -> t
(** Compile the plan onto the engine: every event becomes a scheduled
    callback. Call before running the simulation (all event times must
    be in the future). *)

val injected : t -> int
(** Fault actions fired so far — window events count twice (open and
    close). A determinism check across two same-seeded runs compares
    this alongside the kernels' statistics. *)

val fired_counts : t -> (string * int) list
(** Actions fired so far, per clause kind, in {!all_kinds} order;
    kinds that never fired are absent. The fuzz coverage report fails a
    run whose plan declares a kind that never fired. *)
