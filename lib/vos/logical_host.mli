(** Logical hosts — the unit of migration.

    "V address spaces and their associated processes are grouped into
    logical hosts. ... There may be multiple logical hosts associated with
    a single workstation, however, a logical host is local to a single
    workstation" (Section 2.1). Migration moves a whole logical host;
    rebinding its id to a new station rebinds every process id inside it.

    Besides the processes and address spaces, a logical host carries the
    per-request bookkeeping that must move with it for the IPC guarantees
    of Section 3.1.3 to survive a migration: the inbound-transaction table
    (duplicate suppression and cached replies) and the list of deferred
    kernel-server/program-manager operations. *)

type inbound_state =
  | Queued  (** Delivered to the recipient's queue, not yet received. *)
  | In_service  (** Received; reply outstanding. *)
  | Replied of Message.t * Time.t
      (** Reply sent and retained until the expiry instant for duplicate
          requests; each duplicate refreshes the expiry. *)

(** Lifecycle trace events, emitted by the owning kernel. [host] names
    the workstation whose {e copy} of the logical host the event
    concerns; the no-residual-dependency monitor requires that after a
    migration commits, no event mentions the old host's copy. A kernel
    emits [Lh_frozen] only after the host's CPU has drained the frozen
    host's running slice, and [Lh_unfrozen] before any thawed process
    resumes. *)
type Tracer.event +=
  | Lh_frozen of { host : string; lh : Ids.lh_id }
  | Lh_unfrozen of { host : string; lh : Ids.lh_id }
  | Lh_extracted of { host : string; lh : Ids.lh_id; bytes : int }
  | Lh_installed of { host : string; lh : Ids.lh_id; bytes : int }
  | Lh_destroyed of { host : string; lh : Ids.lh_id }

type t

val create : id:Ids.lh_id -> priority:Cpu.priority -> t
(** A fresh, empty, unfrozen logical host. [priority] is the CPU class
    its processes run at — [Background] for guest (remotely executed)
    programs. *)

val id : t -> Ids.lh_id
val priority : t -> Cpu.priority

(** {1 Processes and address spaces} *)

val new_process : t -> Vproc.t
(** Allocate the next free index and register a process under it. *)

val find_process : t -> int -> Vproc.t option
val processes : t -> Vproc.t list
(** In index order. *)

val process_count : t -> int

val add_space : t -> Address_space.t -> unit
val spaces : t -> Address_space.t list
val total_bytes : t -> int
(** Memory footprint: sum of address-space sizes. *)

val dirty_bytes : t -> int
(** Dirty bytes across all address spaces, the pre-copy residue. *)

val clear_dirty : t -> int
(** Clear dirty bits everywhere; returns bytes that were dirty. *)

(** {1 Freezing} *)

val frozen : t -> bool

val set_frozen : t -> bool -> unit
(** Raw flag flip; {!Kernel.freeze_lh} performs the full protocol (CPU
    drain, pausing processes). *)

val gate : t -> unit -> unit
(** A closure that blocks its caller while the logical host is frozen —
    installed at every point where member processes consume CPU or enter
    the kernel. *)

val thaw : t -> unit
(** Wake everything blocked in {!gate}. Called by unfreeze after the
    frozen flag is cleared. *)

(** {1 Migratable request state} *)

(** The inbound-transaction table, keyed by transaction id alone: txn
    values are drawn from one per-domain counter shared by every kernel
    in a replica, so no two senders ever share a txn and the (sender,
    txn) pair of Section 3.1.3 collapses to the int — an int key hashes
    without allocating the pair on every duplicate-suppression probe.

    A reply is retained until its expiry instant and no longer
    ({!Os_params.reply_cache_ttl}): a [Replied] entry past its expiry
    reads as absent, and the table drops every such entry each time it
    has doubled in size since its previous sweep. *)

val inbound_find : t -> now:Time.t -> Packet.txn -> inbound_state option
(** The transaction's state at [now]; [None] for an unknown transaction
    or an expired reply (which is dropped). *)

val inbound_set : t -> now:Time.t -> Packet.txn -> inbound_state -> unit
(** Record the transaction's state; may sweep expired replies. Amortised
    O(1). *)

val inbound_remove : t -> Packet.txn -> unit
val inbound_clear : t -> unit

val inbound_size : t -> int
(** Entries held, expired replies not yet swept included. *)

val defer_op : t -> Delivery.t -> unit
(** Park a kernel-server/program-manager request targeting this (frozen)
    logical host, to be forwarded after migration (Section 3.1.3). *)

val take_deferred : t -> Delivery.t list
(** Remove and return deferred operations, oldest first. *)
