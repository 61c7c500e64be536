type status =
  | Running
  | Migrating
  | Suspended
  | Done of { at : Time.t; cpu_used : Time.span; failed : bool }

type program = {
  p_lh : Logical_host.t;
  p_spec : Programs.spec;
  p_env : Env.t;
  p_root : Vproc.t;
  p_space : Address_space.t;
  p_model : Dirty_model.t;
  p_started : Time.t;
  p_origin : string;
  mutable p_status : status;
  mutable p_waiters : Delivery.t list;
  mutable p_cpu_used : Time.span;
}

type registry = program Int_table.Direct.t

(* Ownership is derived, never stored: a view answers only for records
   whose logical host the directory places on its kernel. *)
type t = { reg : registry; dir : Directory.t; owner : Kernel.t }

type Message.body +=
  | Pm_exited of { wall : Time.span; cpu : Time.span; ok : bool }

let registry () = Int_table.Direct.create 16
let view reg ~directory owner = { reg; dir = directory; owner }

let add t ~lh ~spec ~env ~root ~space ~model ~origin =
  let p =
    {
      p_lh = lh;
      p_spec = spec;
      p_env = env;
      p_root = root;
      p_space = space;
      p_model = model;
      p_started = Engine.now (Kernel.engine t.owner);
      p_origin = origin;
      p_status = Running;
      p_waiters = [];
      p_cpu_used = Time.zero;
    }
  in
  Int_table.Direct.replace t.reg (Logical_host.id lh) p;
  p

let owns t lh_id =
  match Directory.locate t.dir lh_id with Some k -> k == t.owner | None -> false

let find t lh_id =
  match Int_table.Direct.find_opt t.reg lh_id with
  | Some _ as p when owns t lh_id -> p
  | Some _ | None -> None

(* [Kernel.logical_hosts] is in id order already. *)
let programs t =
  List.filter_map
    (fun lh -> find t (Logical_host.id lh))
    (Kernel.logical_hosts t.owner)

let remove t p = Int_table.Direct.remove t.reg (Logical_host.id p.p_lh)

let add_waiter p d = p.p_waiters <- d :: p.p_waiters

let finish k p ~cpu_used ~failed =
  let now = Engine.now (Kernel.engine k) in
  p.p_status <- Done { at = now; cpu_used; failed };
  let waiters = List.rev p.p_waiters in
  p.p_waiters <- [];
  let wall = Time.sub now p.p_started in
  List.iter
    (fun d ->
      Kernel.reply k d
        (Message.make (Pm_exited { wall; cpu = cpu_used; ok = not failed })))
    waiters

let charge_cpu p span = p.p_cpu_used <- Time.add p.p_cpu_used span
