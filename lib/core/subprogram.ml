type t = {
  sub_pid : Ids.pid;
  sub_prog : string;
  sub_vp : Vproc.t;
}

let pid t = t.sub_pid
let prog_name t = t.sub_prog

let running t =
  match Vproc.thread t.sub_vp with Some th -> Proc.alive th | None -> false

let join t =
  match Vproc.thread t.sub_vp with
  | Some th -> Proc.join th
  | None -> Proc.Normal

let spawn ctx rng ~(parent : Progtable.program) ~prog =
  let lh = parent.Progtable.p_lh in
  let lh_id = Logical_host.id lh in
  let k = Directory.current ctx lh_id in
  match Programs.find prog with
  | exception Not_found -> Error ("unknown program: " ^ prog)
  | spec -> (
      let env = parent.Progtable.p_env in
      (* The parent loads the child's image like any program load; the
         requesting identity is the parent's root process. *)
      match
        File_server.Client.load_image k
          ~self:(Vproc.pid parent.Progtable.p_root)
          ~server:env.Env.file_server ~name:prog
      with
      | Error e -> Error ("image load failed: " ^ e)
      | Ok img ->
          let space =
            Address_space.create ~code_bytes:img.File_server.code_bytes
              ~data_bytes:img.File_server.data_bytes
              ~active_bytes:img.File_server.active_bytes ()
          in
          Logical_host.add_space lh space;
          let model = Dirty_model.create spec.Programs.dirty space in
          let sub_rng = Rng.split rng in
          let vp =
            Kernel.spawn_process k lh (fun vp ->
                Program.run_spec ctx sub_rng ~lh ~spec ~env ~model
                  ~charge:(Progtable.charge_cpu parent)
                  ~self:(Vproc.pid vp))
          in
          Ok { sub_pid = Vproc.pid vp; sub_prog = prog; sub_vp = vp })
