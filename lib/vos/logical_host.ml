type inbound_state = Queued | In_service | Replied of Message.t * Time.t

(* Lifecycle trace events, emitted by the owning kernel ([host] names the
   workstation whose copy of the logical host the event concerns — after
   a migration commits, none of these may mention the old host's copy). *)
type Tracer.event +=
  | Lh_frozen of { host : string; lh : Ids.lh_id }
  | Lh_unfrozen of { host : string; lh : Ids.lh_id }
  | Lh_extracted of { host : string; lh : Ids.lh_id; bytes : int }
  | Lh_installed of { host : string; lh : Ids.lh_id; bytes : int }
  | Lh_destroyed of { host : string; lh : Ids.lh_id }

let () =
  let v type_ host lh extra =
    Tracer.view_as "lh" type_
      (("host", Tracer.Str host) :: ("lh", Tracer.Int lh) :: extra)
  in
  Tracer.register_view (function
    | Lh_frozen { host; lh } -> v "frozen" host lh []
    | Lh_unfrozen { host; lh } -> v "unfrozen" host lh []
    | Lh_extracted { host; lh; bytes } ->
        v "extracted" host lh [ ("bytes", Tracer.Int bytes) ]
    | Lh_installed { host; lh; bytes } ->
        v "installed" host lh [ ("bytes", Tracer.Int bytes) ]
    | Lh_destroyed { host; lh } -> v "destroyed" host lh []
    | _ -> None)

type t = {
  lh_id : Ids.lh_id;
  prio : Cpu.priority;
  home_host : string;
  procs : (int, Vproc.t) Hashtbl.t;
  mutable proc_order : int list; (* indices, newest first *)
  mutable space_list : Address_space.t list;
  mutable next_index : int;
  mutable is_frozen : bool;
  mutable thaw_waiters : (unit -> unit) list;
  inbound_tbl : (Packet.txn, inbound_state) Hashtbl.t;
  mutable deferred : Delivery.t list; (* newest first *)
}

let create ~id ~priority ~home =
  {
    lh_id = id;
    prio = priority;
    home_host = home;
    procs = Hashtbl.create 8;
    proc_order = [];
    space_list = [];
    next_index = Ids.first_user_index;
    is_frozen = false;
    thaw_waiters = [];
    inbound_tbl = Hashtbl.create 16;
    deferred = [];
  }

let id t = t.lh_id
let priority t = t.prio

let new_process t =
  let index = t.next_index in
  t.next_index <- index + 1;
  let vp = Vproc.create (Ids.pid t.lh_id index) in
  Hashtbl.replace t.procs index vp;
  t.proc_order <- index :: t.proc_order;
  vp

let find_process t index = Hashtbl.find_opt t.procs index

let processes t =
  List.rev_map (fun i -> Hashtbl.find t.procs i) t.proc_order

let process_count t = Hashtbl.length t.procs

let add_space t sp = t.space_list <- sp :: t.space_list
let spaces t = List.rev t.space_list

let total_bytes t =
  List.fold_left (fun acc sp -> acc + Address_space.bytes sp) 0 t.space_list

let dirty_bytes t =
  List.fold_left (fun acc sp -> acc + Address_space.dirty_bytes sp) 0 t.space_list

let clear_dirty t =
  List.fold_left
    (fun acc sp ->
      acc + (Address_space.clear_dirty sp * Address_space.page_bytes sp))
    0 t.space_list

let frozen t = t.is_frozen
let set_frozen t b = t.is_frozen <- b

let gate t () =
  while t.is_frozen do
    Proc.suspend (fun wake ->
        t.thaw_waiters <- wake :: t.thaw_waiters;
        fun () ->
          t.thaw_waiters <- List.filter (fun w -> w != wake) t.thaw_waiters)
  done

let thaw t =
  let waiters = List.rev t.thaw_waiters in
  t.thaw_waiters <- [];
  List.iter (fun wake -> wake ()) waiters

let inbound t = t.inbound_tbl

let defer_op t d = t.deferred <- d :: t.deferred

let take_deferred t =
  let ops = List.rev t.deferred in
  t.deferred <- [];
  ops
