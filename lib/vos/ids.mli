(** V identifiers.

    A V process identifier is a (logical-host-id, local-index) pair
    (Section 2.1). Process-group identifiers share the format; the
    host-specific kernel server and program manager are addressed through
    {e local} groups built from a logical host's id and a well-known index,
    which is what makes them reachable in a location-independent way. *)

type lh_id = int
(** Logical-host identifier — globally unique across the cluster. *)

type pid = { lh : lh_id; index : int }
(** A process (or process-group) identifier. *)

val pid : lh_id -> int -> pid

val pid_equal : pid -> pid -> bool
val pid_compare : pid -> pid -> int

val pp_lh : Format.formatter -> lh_id -> unit
val pp_pid : Format.formatter -> pid -> unit
val pid_to_string : pid -> string

(** {1 Well-known local indices}

    Every host's kernel server and program manager occupy reserved indices
    within each logical host's id space, so "the kernel server managing
    {e this} program" is [{ lh = my_lh; index = kernel_server_index }] —
    no matter where the logical host currently runs. *)

val kernel_server_index : int
val program_manager_index : int

val kernel_server_of : lh_id -> pid
(** The local-group id addressing the kernel server co-resident with the
    given logical host. *)

val program_manager_of : lh_id -> pid
(** Likewise for the program manager. *)

val is_local_group : pid -> bool
(** [true] for identifiers using a reserved index — they address whichever
    host currently runs the logical host, not a migratable process. *)

(** {1 Well-known global groups} *)

val program_manager_group : pid
(** The group all program managers join (Section 2.1); host selection
    multicasts to it. *)

val pod_group : int -> pid
(** The scheduling group for pod [n] under a pod-sharded placement
    policy ({!Config.placement}). Every program manager in the pod joins
    it in addition to {!program_manager_group}; pod-scoped host selection
    multicasts to it instead of the global group. Ids live in the same
    reserved range as the global groups. *)

val content_group : pid
(** The group every kernel server with a non-zero content-cache budget
    joins. The file server multicasts image-chunk digest announcements
    to it after serving a load, so one host's cold image load warms the
    whole cluster's caches (DESIGN.md §4k). *)

val first_user_index : int
(** Lowest index allocated to ordinary processes. *)

(** {1 Allocation} *)

module Lh_allocator : sig
  (** Cluster-wide allocator of fresh logical-host ids. In V these were
      drawn from a managed id space; one allocator per simulation keeps
      them unique, including the temporary ids given to new copies during
      migration (Section 3.1.1). *)

  type t

  val create : unit -> t
  val fresh : t -> lh_id
end
