(** Locating the kernel a logical host currently runs on.

    Programs in V reach "their" kernel server and program manager through
    local group ids — [{my_lh, 1}] resolves to whichever host currently
    runs the logical host (Section 2.1). Simulated program bodies hold
    OCaml handles rather than send packets for every kernel call, so they
    need the same indirection in handle form: a directory maps a logical
    host id to the kernel currently hosting it. Program code must re-ask
    on every use; caching the kernel across a blocking call is exactly
    the bug transparency is meant to prevent.

    Programs re-ask once per CPU quantum, so the answer comes from an
    index the kernels keep current ({!Kernel.on_residency}): one hash
    lookup, whatever the number of kernels. *)

type t

val of_kernels : unit -> t
(** An empty registry to which kernels are added as they boot. *)

val register : t -> Kernel.t -> unit
(** Add a kernel, indexing the logical hosts resident on it now and
    following every later change. *)

val kernels : t -> Kernel.t list
(** In registration order. *)

val locate : t -> Ids.lh_id -> Kernel.t option
(** The kernel currently hosting the logical host, if any. If two
    kernels hold a copy, the one registered first. O(1). *)

val current : t -> Ids.lh_id -> Kernel.t
(** Like {!locate}, without allocating.
    @raise Failure if the logical host is not resident anywhere — it is
    mid-migration or destroyed; simulated program bodies treat this as
    "retry after a beat". *)

val find_host : t -> string -> Kernel.t option
(** Look a kernel up by workstation name. *)
