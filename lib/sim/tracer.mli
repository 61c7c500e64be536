(** Typed, timestamped event traces.

    Every event is typed: subsystems emit their own variants (IPC
    packets, migration phase transitions, scheduler decisions, frame
    deliveries, program creations, image loads); online invariant
    monitors subscribe to the live stream, tests assert on it, and
    examples print it — the quickstart's rendering of the paper's
    Figure 2-1 communication paths is a filtered trace.

    The event type is extensible: each layer declares its own variants
    ([Ethernet.Frame_sent], [Kernel.Ipc_send], ...) and registers a
    {!view} function that renders them into a category, a type tag and a
    flat field list. The tracer itself stays at the bottom of the
    dependency stack and never learns about kernels or frames.

    Every event is stamped and forwarded synchronously to any registered
    subscribers, so monitors observe every event. A bounded ring buffer
    (oldest evicted first) holds the history {!records} reads back, and
    which events it takes depends on whether anyone asked for it:
    - the events stamped before the engine fires its first event (the
      boot log: cluster creation, stations attaching) always;
    - the events stamped after that only if the tracer is kept
      ({!keep}, called before the run by a reader that reads the trace
      afterwards, such as [vsim exec --trace] or a golden trace).
    A monitored run that only subscribes thus keeps no history beyond
    its boot log. *)

type event = ..
(** The extensible event type. Layers add variants; anything without a
    registered view still traces, rendered opaquely. *)

(** Scalar field values carried by an event view. *)
type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Span of Time.t  (** Rendered/exported as integer microseconds. *)

type view = {
  v_cat : string;  (** Subsystem tag, e.g. ["ipc"], ["migrate"]. *)
  v_type : string;  (** Variant tag, e.g. ["frame_sent"]. *)
  v_fields : (string * value) list;
}

val register_view : (event -> view option) -> unit
(** Add a viewer to the global registry. Each layer registers one
    function recognizing its own variants (returning [None] for
    everything else) at module initialization. *)

val view_as : string -> string -> (string * value) list -> view option
(** [view_as cat typ fields] is a viewer's answer for a variant it
    recognizes. *)

val view : event -> view
(** Render an event through the registry. Variants no viewer recognizes
    render as category ["?"], type ["opaque"]. *)

type record = { at : Time.t; seq : int; ev : event }
(** A stamped event: virtual instant plus a per-tracer sequence number
    (dense, starting at 0, never reused). *)

type t

val create : ?capacity:int -> Engine.t -> t
(** A tracer stamping events with the engine's clock, not kept: its ring
    takes only the events stamped before the engine fires its first
    event, so a tracer whose engine never runs keeps everything.
    [capacity] bounds the ring buffer (default 65536 records); once
    full, each new record displaces the oldest. The ring is allocated on
    demand: it doubles as it fills, from 64 slots up to 4096, and then
    grows to [capacity] in one step. *)

val keep : t -> unit
(** Keep the history: the ring goes on taking every event after the
    engine fires, so {!records} reads the whole run (up to [capacity]).
    Call it before the run. Raises [Invalid_argument] once {!keeping}
    is false: the events since the first fire are lost, so the history
    would be partial. *)

val keeping : t -> bool
(** Whether the ring still takes every event emitted: until the engine
    fires its first event, and for ever on a kept tracer. A reader that
    catches up on {!records} and then subscribes (the monitors) sees
    every event only while this holds. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Recording defaults to on; large batch experiments turn it off. When
    disabled, {!emit} is a complete no-op (subscribers included). Hot
    paths should guard event construction with {!enabled}. *)

val emit : t -> event -> unit
(** Stamp and record a typed event, then notify subscribers in
    registration order. No-op when disabled. *)

val on_event : t -> (record -> unit) -> unit
(** Subscribe to the live stream. Subscribers run synchronously inside
    {!emit} and must not emit events themselves. *)

val records : t -> record list
(** Retained records, oldest first: on a kept tracer every event up to
    [capacity], on one that is not kept only those stamped before its
    engine fired its first event. Older events may have been evicted
    from the ring. *)

val seq : t -> int
(** Number of events emitted so far (= next sequence number). *)

val clear : t -> unit

val pp_record : Format.formatter -> record -> unit
(** One-line rendering through the event's view:
    ["#12     \[   3.200ms\] ipc: send host=ws0 txn=4 ..."]. *)

(** {1 JSONL export} *)

val to_jsonl : ?categories:string list -> t -> string
(** All retained records (optionally restricted to the given view
    categories), one JSON object per line:
    [{"seq":N,"at_us":N,"cat":"...","type":"...",<fields>}]. [Span]
    fields export as integer microseconds. *)
