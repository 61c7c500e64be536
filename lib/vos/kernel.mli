(** The per-workstation V kernel.

    One instance runs on every simulated workstation, exactly as "a
    functionally identical copy of the kernel resides on each host"
    (Section 2.1). It provides address spaces grouped into logical hosts,
    processes, and network-transparent IPC, and hosts the kernel-server
    process that services remote kernel operations (state installation
    during migration, remote destroy, page pulls and transfer manifests).

    {2 IPC protocol}

    [Send] blocks the caller until a matching [Reply]. Remote sends are
    driven by a kernel-level retransmission machine — kernel-level so that
    a {e frozen} process' outstanding sends keep retransmitting during
    migration, which is what keeps repliers' cached replies alive
    (Section 3.1.3). Receiving kernels suppress duplicates through a
    per-logical-host transaction table, answer duplicates of in-service
    requests with reply-pending packets, and re-send retained replies when
    a duplicate reveals a lost reply.

    {2 Logical host binding}

    Process ids name (logical host, index); kernels map logical hosts to
    stations through a binding cache. A send that goes unanswered for a
    few retransmissions invalidates its cache entry and broadcasts
    [Where_is]; any kernel hosting the logical host answers, and caches
    are also refreshed from the source of every incoming packet
    (Section 3.1.4). This is the entire rebinding story — there are no
    forwarding addresses to leak, the property the paper holds over
    Demos/MP. *)

type t

(** {1 Typed trace events}

    [host] is the workstation {e emitting} the event, so monitors can
    attribute IPC activity to a specific copy of a logical host: after a
    migration commits, the no-residual-dependency monitor rejects any of
    these naming the old host and the migrated logical host.

    [Ipc_send] fires when a send transaction is opened (once per logical
    send, not per retransmission); [Ipc_recv] when a request is queued
    to its target process (local or remote origin); [Ipc_reply] when the
    reply is issued; [Ipc_forward] only in the Demos/MP forwarding
    ablation, when a departed host's mail is relayed off the forwarding
    address. Binding events fire on actual cache changes, not on the
    per-packet refreshes that re-confirm an existing entry. *)
type Tracer.event +=
  | Ipc_send of { host : string; txn : Packet.txn; src : Ids.pid; dst : Ids.pid }
  | Ipc_recv of { host : string; txn : Packet.txn; src : Ids.pid; dst : Ids.pid }
  | Ipc_reply of { host : string; txn : Packet.txn; src : Ids.pid; dst : Ids.pid }
  | Ipc_forward of {
      host : string;
      txn : Packet.txn;
      lh : Ids.lh_id;
      to_station : Addr.t;
    }
  | Binding_set of { host : string; lh : Ids.lh_id; station : Addr.t }
  | Binding_invalidated of { host : string; lh : Ids.lh_id }
  | Host_crashed of { host : string }
  | Host_rebooted of { host : string }
  | Page_fault_service of {
      host : string;
      lh : Ids.lh_id;
      pages : int;
      bytes : int;
    }
      (** Copy-on-reference residual traffic: the {e old} host [host]
          served [pages] pages it retained for departed logical host
          [lh]. Emitted with category ["migrate"], type ["page-fault"];
          the no-residual-dependency monitor attributes these to the
          banned (logical host, old host) pair. *)
  | Page_source_lost of { host : string; lh : Ids.lh_id }
      (** A copy-on-reference client [host] gave up on the source
          serving logical host [lh]'s retained pages: the fault request
          went unanswered, so the unreferenced pages are lost with it.
          Category ["migrate"], type ["page-source-lost"]. *)
  | Xfer_manifest of {
      host : string;
      lh : Ids.lh_id;
      label : string;
      chunks : int;
      bytes : int;
      wire_bytes : int;
      digest_sum : int;
    }
      (** Content-addressed transfer: [host] scanned a [chunks]-entry
          digest manifest covering [bytes] of content for logical host
          [lh] against its cache. [wire_bytes] is what the manifest
          itself cost on the wire (0 for local fault-path scans);
          [digest_sum] sums the 48-bit chunk digests. Category ["xfer"],
          type ["manifest"]; always immediately followed by one
          {!Xfer_chunk_hit} and one {!Xfer_chunk_miss} (possibly with
          zero counts) for the same scan — the dedup monitor checks the
          triple conserves chunks, bytes, and digest sums. *)
  | Xfer_chunk_hit of {
      host : string;
      lh : Ids.lh_id;
      label : string;
      chunks : int;
      bytes : int;
      digest_sum : int;
    }
      (** Chunks of the preceding manifest already held by [host]'s
          cache: [bytes] bytes that need not cross the wire. Category
          ["xfer"], type ["hit"]. *)
  | Xfer_chunk_miss of {
      host : string;
      lh : Ids.lh_id;
      label : string;
      chunks : int;
      bytes : int;
      digest_sum : int;
    }
      (** Chunks the source must still ship. Category ["xfer"], type
          ["miss"]. *)
  | Img_cache_hit of { host : string; image : string; chunks : int; bytes : int }
      (** A program creation on [host] found all of [image]'s [chunks]
          chunks cached: the 330 ms/100 KB file-server load is skipped
          (only missing chunks are pulled — [bytes] counts the cached
          ones). Category ["img"], type ["hit"]. *)
  | Img_cache_miss of { host : string; image : string; chunks : int; bytes : int }
      (** A program creation had to pull [chunks] missing chunks
          ([bytes] bytes) of [image] from the file server. Category
          ["img"], type ["miss"]. *)

type send_error =
  | No_response
      (** Retransmissions and queries went unanswered past the
          abandonment deadline: target destroyed, unreachable, or never
          existed. *)

val pp_send_error : Format.formatter -> send_error -> unit

(** {1 Construction} *)

val create :
  engine:Engine.t ->
  rng:Rng.t ->
  tracer:Tracer.t ->
  params:Os_params.t ->
  net:Packet.t Ethernet.t ->
  station:Addr.t ->
  host_name:string ->
  allocator:Ids.Lh_allocator.t ->
  memory_bytes:int ->
  t
(** Boot a workstation kernel: attaches to the network, creates the
    unmigratable host logical host, and starts the kernel-server process.
    [memory_bytes] is the workstation's RAM (2 MB on the paper's SUNs),
    bounding what programs and reservations it can accommodate. *)

val reset_txn_ids : unit -> unit
(** Reset this domain's IPC transaction counter. Called per cluster so
    replica runs see identical txn sequences whatever domain executes
    them. *)

val running : t -> bool
(** [true] between boot/{!reboot} and {!shutdown}. Fault-injection hooks
    use this to make churn idempotent: never crash a dead kernel or
    reboot a live one. *)

val shutdown : t -> unit
(** Crash the workstation: detach from the network, kill every resident
    process, and discard all volatile kernel state — binding cache,
    retained replies, reservations, forwarding addresses, group
    memberships. Used by fault injection — a migration destination dying
    mid-transfer must leave the source able to recover. *)

val reboot : t -> unit
(** Cold-boot a previously {!shutdown} kernel on the same station. The
    host logical host keeps its id (so well-known kernel-server and
    program-manager pids stay valid) but comes back empty: every guest
    it hosted is gone, and correspondents rebind via [Where_is]. The
    kernel-server process is restarted; the caller must recreate
    machine services (program manager, servers). Raises
    [Invalid_argument] if the kernel is still running. *)

(** {1 Accessors} *)

val engine : t -> Engine.t
val params : t -> Os_params.t

val emit : t -> (unit -> Tracer.event) -> unit
(** Emit the event the thunk builds on this kernel's tracer; when
    tracing is off the thunk is never called. *)

val host_name : t -> string
val station : t -> Addr.t
val cpu : t -> Cpu.t
val allocator : t -> Ids.Lh_allocator.t
val host_lh : t -> Logical_host.t
(** The logical host holding this workstation's system processes; it is
    bound to the hardware and never migrates. *)

val memory_bytes : t -> int
val memory_free : t -> int
(** RAM minus resident logical hosts and outstanding reservations. Each
    call walks the resident hosts and sums their address spaces. *)

val logical_hosts : t -> Logical_host.t list
(** The resident logical hosts in ascending id order. The kernel keeps
    them sorted as residency changes, so this only builds the list. *)

val fold_resident : (Ids.lh_id -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_resident f k init] folds [f] over the ids of the logical hosts
    resident on [k], highest id first, so consing onto [init] builds an
    ascending list. It allocates nothing itself. *)

val find_lh : t -> Ids.lh_id -> Logical_host.t option
val guest_count : t -> int
(** Resident logical hosts running at background (guest) priority: a
    count the residency changes keep, read without a walk. *)

val on_residency : t -> (Ids.lh_id -> resident:bool -> unit) -> unit
(** [on_residency k f] calls [f id ~resident:true] for every logical host
    resident on [k] now, then calls [f] on every later change: with
    [~resident:true] when a host is created or installed here or comes
    back with a {!reboot}, with [~resident:false] when one is destroyed,
    extracted for migration or lost in a {!shutdown}. [f] sees exactly
    the changes {!find_lh} reflects, in order; it must not change
    residency itself. A kernel has one such [f]: a later call replaces
    it. *)

(** {1 Logical hosts and processes} *)

val create_logical_host : t -> priority:Cpu.priority -> Logical_host.t
val destroy_logical_host : t -> Logical_host.t -> unit
(** Kill all processes and release the memory. Pending senders to the
    destroyed host eventually fail with [No_response]. *)

val spawn_process : t -> Logical_host.t -> (Vproc.t -> unit) -> Vproc.t
(** Create a process and start its code immediately. *)

val create_process : t -> Logical_host.t -> Vproc.t
(** Create a process without code — the paper's creation order, where the
    new process exists "awaiting reply from its creator" before the
    requester initializes and starts it. Pair with {!start_process}. *)

val start_process : t -> Vproc.t -> (Vproc.t -> unit) -> unit

val system_process : t -> index:int -> (Vproc.t -> unit) -> Vproc.t
(** Register a well-known service (reserved index) in the host logical
    host — the program manager layer uses index
    {!Ids.program_manager_index}. *)

(** {1 Process groups} *)

val join_group : t -> group:Ids.pid -> Vproc.t -> unit
(** Add a local process to a (global) process group and subscribe the
    station to the group's multicast address. *)

val leave_group : t -> group:Ids.pid -> Vproc.t -> unit

(** {1 IPC operations} *)

val send :
  ?deadline:Time.t ->
  t ->
  src:Ids.pid ->
  dst:Ids.pid ->
  Message.t ->
  (Message.t, send_error) result
(** Blocking Send: delivers the request (locally or via the wire protocol)
    and returns the reply. Charges the kernel-operation costs of
    Section 4.1 — including the frozen-state test and, when [dst] is a
    local group id, the group-lookup indirection. [deadline] bounds the
    wait absolutely: if no reply arrived by that instant the send
    completes [Error No_response] without waiting out the retransmission
    machinery's own give-up timer — the primitive beneath the failure
    detector's adaptive probe timeouts. *)

type collector
(** Gathers replies to a group send. *)

val send_group :
  t -> src:Ids.pid -> group:Ids.pid -> Message.t -> collector
(** One Send multicast to a process group; unreliable, replies stream into
    the collector. The decentralized scheduler is built on this. *)

val collect_first :
  t -> collector -> timeout:Time.span -> (Ids.pid * Message.t) option
(** First reply, or [None] on timeout; closes the collector. Picking the
    first responder is the paper's whole host-selection policy. *)

val collect_first_where :
  t ->
  collector ->
  accept:(Ids.pid * Message.t -> bool) ->
  timeout:Time.span ->
  grace:Time.span ->
  (Ids.pid * Message.t) option
(** First reply satisfying [accept], or — if none arrives — the first
    rejected reply as a fallback, or [None] on timeout; closes the
    collector. Once a rejected reply is in hand the remaining wait is
    capped at [grace], so a deprioritized (e.g. merely Suspect) bidder
    never costs the caller the full timeout. *)

val collect_within :
  t -> collector -> window:Time.span -> (Ids.pid * Message.t) list
(** The replies delivered within the window, in arrival order. The
    caller wakes once, at the deadline: one event [window] after the
    call closes the collector and resumes the caller, which takes what
    was queued. A reply delivered before the deadline is included. One
    delivered at the deadline instant is included only when its delivery
    was scheduled before this call (events at one instant fire in the
    order they were scheduled); later ones find the collector closed
    and are dropped, even while the caller's host is frozen. A [window]
    of zero or less closes the collector and returns [[]] at once. *)

val close_collector : t -> collector -> unit
(** Close a collector without waiting: fire-and-forget multicast. Any
    replies in flight are discarded on arrival. Used for one-way
    announcements such as [Ks_content_announce]. *)

val receive : t -> Vproc.t -> Delivery.t
(** Blocking Receive of the next queued request. *)

val reply : ?from:Ids.pid -> t -> Delivery.t -> Message.t -> unit
(** Reply to a received request. The reply is retained for the configured
    TTL to answer duplicate requests. [from] identifies the replying
    group member when answering a group send. *)

val bulk_transfer : ?to_station:Addr.t -> t -> bytes:int -> unit
(** Block the calling process while [bytes] move over the shared wire —
    the inter-host CopyTo/CopyFrom primitive beneath address-space copies
    and file transfers. Runs at the network's bulk rate (3 s/MB
    calibration) and contends with all other traffic; a [to_station] on a
    bridged segment makes the copy occupy both wires. *)

(** {1 Binding cache}

    Logical-host id to station, an {!Int_table.Flat} table of 16 cells
    at boot that doubles before it is half full: one interleaved [int]
    array of keys and station numbers, probed linearly from
    [id land mask]. Every incoming request, reply and group request
    refreshes its sender's entry; hosts resident here are never cached.
    A crash empties it. *)

val lookup_binding : t -> Ids.lh_id -> Addr.t option

val set_binding : t -> Ids.lh_id -> Addr.t -> unit
(** One probe; emits [Binding_set] only when the station changed. *)

val lh_hosting_or_reserved : t -> Ids.lh_id -> bool
(** Whether this kernel holds the logical host or a reservation for it:
    what makes it answer a [Where_is]. A one-word filter (a bit per
    [id land 31], set for every resident and reserved id) is read
    first, so an id held elsewhere is usually refused without a
    search. *)

val announce_lh : t -> Ids.lh_id -> unit
(** Broadcast this kernel's binding for a logical host ([Here_is]) — the
    optional eager rebind of Section 3.1.4. A no-op in the
    {!Os_params.Forwarding} ablation, which has no such mechanism. *)

val set_forward : t -> Ids.lh_id -> Addr.t -> unit
(** Install a Demos/MP-style forwarding address for a departed logical
    host ({!Os_params.Forwarding} ablation only): requests arriving for
    it are relayed to the given station, imposing the residual load — and
    the reboot fragility — that Section 5 holds against that design. *)

(** {1 Migration support (local operations)} *)

type lh_state
(** A logical host's full kernel state in transit: the host itself plus
    its outstanding sends. *)

val freeze_lh : t -> Logical_host.t -> unit
(** Freeze: stop members acquiring the CPU, drain the member currently on
    it, and suspend every member process. Blocking. External interactions
    are deferred per Section 3.1.3 from this instant. *)

val unfreeze_lh : t -> Logical_host.t -> unit
(** Unfreeze a resident logical host: resume processes, re-deliver
    deferred kernel-server/program-manager operations, restart outstanding
    sends. *)

val extract_lh : ?page_source:Ids.pid -> t -> Logical_host.t -> lh_state
(** Remove a frozen logical host from this kernel: scrub queued requests
    (remote senders will retransmit; local senders' sends restart through
    the remote path), collect its outstanding sends, and drop the binding.
    The inverse of {!install_lh}; re-installing locally is the migration
    failure path.

    [page_source] (copy-on-reference only) names this kernel's own
    kernel server: the memory image stays behind, this kernel keeps
    serving the departed host's page faults, and
    the installing kernel evicts every page and faults them back from
    that pid on first touch. *)

val install_lh : t -> lh_state -> Logical_host.t
(** Adopt an extracted logical host (still frozen) and bind it here.
    Consumes a matching reservation if one exists. Raises
    [Invalid_argument] if the kernel is down: a shut-down machine holds
    no guests, so {!reboot} starts from the host logical host alone. *)

val reserve_lh : t -> temp_lh:Ids.lh_id -> bytes:int -> bool
(** Destination-side step 2 of migration (Section 3.1.1): set aside
    memory and answer [Where_is] for the new copy's temporary id so the
    source can address this kernel's server through it. Returns [false]
    if memory is insufficient.

    The reservation carries a lease of {!Os_params.reservation_ttl}:
    every request addressed through the reserved id (each copy round's
    acknowledgement ping) refreshes it, and a reservation whose source
    goes silent — crashed mid-pre-copy, never to install — expires,
    releasing the memory and bumping the [Reservations_expired]
    counter. *)

val cancel_reservation : t -> temp_lh:Ids.lh_id -> unit

val reservation_count : t -> int
(** Reservations currently held — zero on a quiescent kernel; a positive
    steady-state value is a leak. *)

val forward_count : t -> int
(** Forwarding addresses currently installed (Demos/MP ablation). *)

(** {1 Copy-on-reference page faulting}

    The Accent/Demos-style strategy the paper argues against: only
    kernel state moves at migration time; the source keeps the memory
    image and the destination pulls pages on first touch. The source
    dependency persists until every page has been referenced — and a
    source crash strands the program ({!shutdown} drops retained
    pages). *)

val fault_source : t -> Ids.lh_id -> Ids.pid option
(** Destination side: the old host's kernel server a resident
    copy-on-reference logical host still faults its pages from, if any
    pages may remain there. *)

val faults_pending : t -> Ids.lh_id -> bool
(** Whether {!service_page_faults} would pull anything for [lh] now: it
    has a fault source and one of its spaces has first-touch faults
    queued. Without side effects. *)

val service_page_faults : t -> self:Ids.pid -> lh:Ids.lh_id -> unit
(** Drain the first-touch fault queues of [lh]'s spaces and pull the
    faulted pages from the registered source in one batched
    [Ks_fault_pages] request, blocking the caller until the page data
    has crossed the wire. Must run in the faulting process' context at a
    scheduling boundary (it performs blocking IPC). No-op when [lh] has
    no fault source or nothing is queued; if the source no longer
    answers, the dependency is dropped so the program can continue. *)

(** {1 Kernel-server request vocabulary}

    Sent to [Ids.kernel_server_of lh] for any logical host resident on
    (or reserved at) the target kernel. *)

type Message.body +=
  | Ks_ping
  | Ks_pong
  | Ks_install of { state : lh_state; deadline : Time.t option }
      (** Final migration step: install the state, unfreeze, announce the
          new binding, reply {!Ks_installed}. A [deadline] is the source's
          freeze budget expressed as an absolute instant: an install
          arriving after it is refused rather than installed late, so a
          committed migration provably resumed within its budget. *)
  | Ks_installed of { resumed_at : Time.t }
      (** Success reply to {!Ks_install}; [resumed_at] is the instant the
          new copy was unfrozen, closing the freeze-time measurement. *)
  | Ks_destroy_lh of Ids.lh_id
  | Ks_fault_pages of { lh : Ids.lh_id; pages : int; bytes : int }
      (** Copy-on-reference page pull: sent to the old host's kernel
          server, which transfers [bytes] back and replies [Ks_ok] —
          or [Ks_refused] if it retains no pages for [lh]. *)
  | Ks_xfer_manifest of {
      lh : Ids.lh_id;
      label : string;
      digests : int array;
      chunk_bytes : int array;
    }
      (** Manifest-first bulk copy (content caching on): before a bulk
          transfer for [lh], the source names each chunk by its digest,
          with [chunk_bytes.(i)] the size of chunk [digests.(i)] (two
          flat arrays of equal length, so a manifest is two blocks
          however many pages it names). The destination's kernel server probes
          its content cache, emits the {!Xfer_manifest} event triple,
          and replies {!Ks_xfer_need}; the source then ships only the
          missing bytes. Misses are inserted as they are scanned, so
          repeats within one manifest (every zero page after the first)
          already dedup. *)
  | Ks_xfer_need of { bytes : int }
      (** Reply to {!Ks_xfer_manifest}: [bytes] bytes of the named chunks
          are not cached and must cross the wire (the miss count goes to
          {!Xfer_chunks_miss} and the {!Xfer_manifest} events). *)
  | Ks_content_announce of {
      image : string;
      first : int;
      count : int;
      chunk_bytes : int;
    }
      (** Multicast by the file server to {!Ids.content_group} after
          serving an image load: chunks [first, first+count) of [image]
          just crossed the shared wire, so every listening kernel
          inserts their digests — one host's cold load warms the whole
          cluster (no reply; group sends are best-effort). *)
  | Ks_ok
  | Ks_refused of string

(** {1 Content-addressed transfer} *)

val content_cache : t -> Content_cache.t
(** This host's content cache; disabled (budget 0) unless
    [Os_params.content_cache_bytes] says otherwise. *)

val content_caching : t -> bool
(** [Content_cache.enabled (content_cache t)]. *)

(** {1 Counters}

    Each kernel counts from boot; counts survive {!shutdown} and
    {!reboot}. The content-caching counters stay 0 unless
    [Os_params.content_cache_bytes] enables the cache. *)

type counter =
  | Sends  (** Logical sends opened by {!send} (not retransmissions). *)
  | Sends_failed  (** Sends that completed [Error No_response]. *)
  | Group_sends  (** Multicasts opened by {!send_group}. *)
  | Retransmissions  (** Request packets re-sent to a bound station. *)
  | Where_is  (** [Where_is] queries broadcast for an unbound host. *)
  | Reply_pending  (** Reply-pending packets sent for in-service requests. *)
  | Duplicates  (** Duplicate requests answered from the transaction table. *)
  | Forwarded  (** Requests relayed off a forwarding address ({!set_forward}). *)
  | Replies_discarded_frozen  (** Replies dropped because the sender was frozen. *)
  | Packets_rx  (** Frames received from the network. *)
  | Ks_pings  (** [Ks_ping] requests served by the kernel server. *)
  | Reservations_expired  (** Migration reservations whose lease ran out. *)
  | Reboots  (** Cold boots by {!reboot}. *)
  | Page_faults  (** Batched fault requests a copy-on-reference destination issued. *)
  | Page_fault_serves  (** Fault batches this kernel served as an old host. *)
  | Xfer_chunks_hit  (** Manifest chunks scanned here and found cached. *)
  | Xfer_chunks_miss  (** Manifest chunks scanned here and not cached. *)
  | Xfer_bytes_deduped  (** Bytes of those hits: skipped on the way here. *)
  | Xfer_bytes_shipped  (** Bytes this host sent after a manifest exchange. *)
  | Xfer_bytes_saved  (** Bytes this host did not send thanks to a manifest. *)
  | Xfer_manifest_bytes  (** Wire bytes of the manifests this host sent. *)
  | Img_announced_chunks  (** Image chunks cached from file-server multicasts. *)
  | Img_chunks_hit  (** Image chunks a program creation found cached. *)
  | Img_chunks_miss  (** Image chunks a program creation pulled. *)

val count : t -> counter -> int
val add : t -> counter -> int -> unit

val counters : counter list
(** Every counter, in declaration order. *)

val counter_name : counter -> string
(** The export name: the constructor in lower case. *)

val stat : t -> string -> int
(** [stat t (counter_name c) = count t c]; raises [Invalid_argument] on
    any other name. *)
