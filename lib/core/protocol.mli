(** Program-manager wire vocabulary and migration outcome records.

    The request/reply pairs between workstations' program managers: host
    selection queries (Section 2.1), program creation, completion waits,
    and the destination-side reservation step of migration
    (Section 3.1.1). Program-manager state needs no message of its own:
    ownership of a record follows its logical host ({!Progtable}).
    Migration results are summarized in a {!migration_outcome}, the
    record every migration bench reads its numbers from. *)

(** {1 Migration outcomes} *)

type round = {
  r_bytes : int;  (** Bytes copied in this pre-copy round. *)
  r_span : Time.span;  (** How long the round took (program running). *)
}

type migration_outcome = {
  m_prog : string;
  m_from : string;
  m_dest : string;
  m_strategy : string;
  m_rounds : round list;  (** First element is the full initial copy. *)
  m_final_bytes : int;  (** Residue copied while frozen. *)
  m_freeze_start : Time.t;
  m_resumed_at : Time.t;  (** New copy unfrozen (destination clock). *)
  m_kernel_state : Time.span;  (** 14 ms + 9 ms/object component. *)
  m_total : Time.span;  (** Whole migration, step 1 through commit. *)
  m_faultin_bytes : int;
      (** VM-flush only: bytes expected to move a second time, server to
          new host, on demand (Section 3.2's double-transfer cost). *)
}

val freeze_span : migration_outcome -> Time.span
(** The headline metric: how long the program was actually stopped. *)

val precopied_bytes : migration_outcome -> int
(** Total bytes moved before freezing. *)

val pp_outcome : Format.formatter -> migration_outcome -> unit

(** {1 Migration strategies} *)

type strategy =
  | Precopy  (** The paper's contribution (Section 3.1.2). *)
  | Freeze_and_copy
      (** The "simplest approach" of Section 3.1: freeze first, then copy
          everything — the baseline pre-copy is measured against. *)
  | Copy_on_reference
      (** The Accent/Demos-style alternative the paper argues against:
          move only the kernel state, leave the memory image behind, and
          fault pages across from the old host on first touch. Minimal
          freeze window, but the program stays dependent on its source
          host for as long as unreferenced pages remain there. *)
  | Vm_flush of { page_server : Ids.pid }
      (** Section 3.2: flush dirty pages to a network page server
          (repeatedly, pre-copy style), freeze, flush the residue; the
          new host demand-faults pages back in. Dirty-then-referenced
          pages cross the wire twice. *)

val strategy_name : strategy -> string


(** {1 Program-manager messages} *)

type Message.body +=
  | Pm_query_candidates of { bytes : int; exclude : string list }
      (** Multicast to the PM group: who can take a program needing
          [bytes] of memory? Unwilling hosts stay silent; [exclude] lists
          hosts that must not answer — the querying host itself during
          migration, plus destinations that already failed when a retry
          re-runs selection. *)
  | Pm_query_host of { host : string }
      (** "[prog @ machine]": only the named host answers. *)
  | Pm_candidate of { host : string }
      (** A bid: the answering manager is willing, and [host] is its
          workstation. It carries no load figures, because selection
          takes the first bidder (Section 2.1); the manager weighed its
          own load when it decided to answer. *)
  | Pm_create_program of {
      prog : string;
      env : Env.t;
      priority : Cpu.priority;
      explicit_host : bool;
          (* "prog @ machine": the user picked this host deliberately,
             so guest admission control does not second-guess it *)
    }
      (** Create, load and start a program. Answered with {!Pm_created}
          after the image is loaded — the requester's patience is kept by
          reply-pending packets, exactly like any long V operation. *)
  | Pm_created of {
      root : Ids.pid;
      lh : Ids.lh_id;
      setup : Time.span;  (** Environment-creation time (E-exec split). *)
      load : Time.span;  (** Image-load time (E-exec split). *)
    }
  | Pm_create_failed of string
  | Pm_wait of { lh : Ids.lh_id }
      (** Block until the program exits; answered with
          {!Progtable.Pm_exited}. *)
  | Pm_no_such_program of Ids.lh_id
  | Pm_reserve of { temp_lh : Ids.lh_id; bytes : int }
      (** Migration step 2: set aside [bytes] of memory and the
          temporary logical-host id at the destination. *)
  | Pm_reserved
  | Pm_refused of string
  | Pm_cancel_reserve of { temp_lh : Ids.lh_id }
  | Pm_migrate of {
      lh : Ids.lh_id option;  (** [None]: all guest programs. *)
      dest : string option;  (** [None]: pick via the scheduler. *)
      force_destroy : bool;  (** The paper's [-n] flag. *)
      strategy : strategy;
    }
  | Pm_migrated of migration_outcome list
  | Pm_migrate_failed of string
  | Pm_suspend of { lh : Ids.lh_id }
      (** Freeze a program in place (Section 2's suspension facility —
          the same freeze machinery migration uses, minus the copy).
          Answered with {!Pm_ok}. *)
  | Pm_resume of { lh : Ids.lh_id }
  | Pm_destroy of { lh : Ids.lh_id }
      (** Terminate a program wherever it runs. *)
  | Pm_list_programs
  | Pm_programs of {
      host : string;
      programs : (string * Ids.lh_id * string) list;
      guests : Ids.lh_id list;  (* running guest programs, migratable *)
    }  (** (program, logical host, status) per entry. *)
  | Pm_ok
