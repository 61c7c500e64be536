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
  mutable p_home : t;
  mutable p_status : status;
  mutable p_waiters : Delivery.t list;
  mutable p_cpu_used : Time.span;
}

and t = { tbl_kernel : Kernel.t; tbl : program Int_table.Direct.t }

type Message.body +=
  | Pm_exited of { wall : Time.span; cpu : Time.span; ok : bool }

let create tbl_kernel = { tbl_kernel; tbl = Int_table.Direct.create 16 }

let kernel t = t.tbl_kernel

let add t ~lh ~spec ~env ~root ~space ~model ~origin =
  let p =
    {
      p_lh = lh;
      p_spec = spec;
      p_env = env;
      p_root = root;
      p_space = space;
      p_model = model;
      p_started = Engine.now (Kernel.engine t.tbl_kernel);
      p_origin = origin;
      p_home = t;
      p_status = Running;
      p_waiters = [];
      p_cpu_used = Time.zero;
    }
  in
  Int_table.Direct.replace t.tbl (Logical_host.id lh) p;
  p

let find t lh_id = Int_table.Direct.find_opt t.tbl lh_id

let programs t =
  Int_table.Direct.fold (fun _ p acc -> p :: acc) t.tbl []
  |> List.sort (fun a b ->
         Int.compare (Logical_host.id a.p_lh) (Logical_host.id b.p_lh))

let count t = Int_table.Direct.length t.tbl

let remove t p = Int_table.Direct.remove t.tbl (Logical_host.id p.p_lh)

let adopt t p =
  p.p_home <- t;
  Int_table.Direct.replace t.tbl (Logical_host.id p.p_lh) p

let add_waiter p d = p.p_waiters <- d :: p.p_waiters

let finish p ~cpu_used ~failed =
  let k = kernel p.p_home in
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
