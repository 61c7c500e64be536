type round = { r_bytes : int; r_span : Time.span }

type migration_outcome = {
  m_prog : string;
  m_from : string;
  m_dest : string;
  m_strategy : string;
  m_rounds : round list;
  m_final_bytes : int;
  m_freeze_start : Time.t;
  m_resumed_at : Time.t;
  m_kernel_state : Time.span;
  m_total : Time.span;
  m_faultin_bytes : int;
}

let freeze_span o = Time.sub o.m_resumed_at o.m_freeze_start

let precopied_bytes o = List.fold_left (fun a r -> a + r.r_bytes) 0 o.m_rounds

let pp_outcome ppf o =
  Format.fprintf ppf
    "%s: %s -> %s [%s] rounds=%d precopied=%dKB final=%dKB freeze=%a total=%a"
    o.m_prog o.m_from o.m_dest o.m_strategy (List.length o.m_rounds)
    (precopied_bytes o / 1024)
    (o.m_final_bytes / 1024)
    Time.pp (freeze_span o) Time.pp o.m_total

type strategy =
  | Precopy
  | Freeze_and_copy
  | Copy_on_reference
  | Vm_flush of { page_server : Ids.pid }

let strategy_name = function
  | Precopy -> "precopy"
  | Freeze_and_copy -> "freeze-and-copy"
  | Copy_on_reference -> "copy-on-reference"
  | Vm_flush _ -> "vm-flush"

type Message.body +=
  | Pm_query_candidates of { bytes : int; exclude : string list }
  | Pm_query_host of { host : string }
  | Pm_candidate of { host : string }
  | Pm_create_program of {
      prog : string;
      env : Env.t;
      priority : Cpu.priority;
      explicit_host : bool;
    }
  | Pm_created of {
      root : Ids.pid;
      lh : Ids.lh_id;
      setup : Time.span;
      load : Time.span;
    }
  | Pm_create_failed of string
  | Pm_wait of { lh : Ids.lh_id }
  | Pm_no_such_program of Ids.lh_id
  | Pm_reserve of { temp_lh : Ids.lh_id; bytes : int }
  | Pm_reserved
  | Pm_refused of string
  | Pm_cancel_reserve of { temp_lh : Ids.lh_id }
  | Pm_migrate of {
      lh : Ids.lh_id option;
      dest : string option;
      force_destroy : bool;
      strategy : strategy;
    }
  | Pm_migrated of migration_outcome list
  | Pm_migrate_failed of string
  | Pm_suspend of { lh : Ids.lh_id }
  | Pm_resume of { lh : Ids.lh_id }
  | Pm_destroy of { lh : Ids.lh_id }
  | Pm_list_programs
  | Pm_programs of {
      host : string;
      programs : (string * Ids.lh_id * string) list;
      guests : Ids.lh_id list;  (* running guest programs, migratable *)
    }
  | Pm_ok
