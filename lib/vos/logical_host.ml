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
  procs : Vproc.t Int_table.Direct.t;
  mutable proc_order : int list; (* indices, newest first *)
  mutable space_list : Address_space.t list;
  mutable next_index : int;
  mutable is_frozen : bool;
  mutable thaw_waiters : (unit -> unit) list;
  inbound_tbl : inbound_state Int_table.Direct.t;
  mutable sweep_at : int; (* sweep expired replies at this size *)
  mutable deferred : Delivery.t list; (* newest first *)
}

(* The inbound table is swept once it reaches this size, and after
   that once it has doubled since the last sweep. *)
let min_sweep = 64

let create ~id ~priority =
  {
    lh_id = id;
    prio = priority;
    procs = Int_table.Direct.create 8;
    proc_order = [];
    space_list = [];
    next_index = Ids.first_user_index;
    is_frozen = false;
    thaw_waiters = [];
    inbound_tbl = Int_table.Direct.create 16;
    sweep_at = min_sweep;
    deferred = [];
  }

let id t = t.lh_id
let priority t = t.prio

let new_process t =
  let index = t.next_index in
  t.next_index <- index + 1;
  let vp = Vproc.create (Ids.pid t.lh_id index) in
  Int_table.Direct.replace t.procs index vp;
  t.proc_order <- index :: t.proc_order;
  vp

let find_process t index = Int_table.Direct.find_opt t.procs index

let processes t =
  List.rev_map (fun i -> Int_table.Direct.find t.procs i) t.proc_order

let process_count t = Int_table.Direct.length t.procs

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

let expired ~now = function
  | Replied (_, expiry) -> Time.(expiry < now)
  | Queued | In_service -> false

let inbound_find t ~now txn =
  match Int_table.Direct.find_opt t.inbound_tbl txn with
  | Some st when expired ~now st ->
      Int_table.Direct.remove t.inbound_tbl txn;
      None
  | found -> found

(* Each sweep costs the table's size, and the table must double before
   the next one, so recording a state stays amortised O(1). *)
let inbound_set t ~now txn st =
  let tbl = t.inbound_tbl in
  Int_table.Direct.replace tbl txn st;
  if Int_table.Direct.length tbl >= t.sweep_at then begin
    Int_table.Direct.filter_map_inplace
      (fun _ st -> if expired ~now st then None else Some st)
      tbl;
    t.sweep_at <- max min_sweep (2 * Int_table.Direct.length tbl)
  end

let inbound_remove t txn = Int_table.Direct.remove t.inbound_tbl txn

let inbound_clear t =
  Int_table.Direct.reset t.inbound_tbl;
  t.sweep_at <- min_sweep

let inbound_size t = Int_table.Direct.length t.inbound_tbl

let defer_op t d = t.deferred <- d :: t.deferred

let take_deferred t =
  let ops = List.rev t.deferred in
  t.deferred <- [];
  ops
