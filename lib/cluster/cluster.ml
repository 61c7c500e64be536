type workstation = {
  ws_index : int;
  ws_segment : int;
  ws_kernel : Kernel.t;
  mutable ws_pm : Program_manager.t;
  mutable ws_display : Display_server.t;
}

type t = {
  eng : Engine.t;
  c_net : Packet.t Ethernet.t;
  c_far : Packet.t Ethernet.t; (* == c_net when unbridged *)
  c_cfg : Config.t;
  c_dir : Directory.t;
  c_programs : Progtable.registry;
  c_tracer : Tracer.t;
  c_rng : Rng.t;
  c_fs : File_server.t;
  c_ns : Name_server.t;
  c_fs_kernel : Kernel.t;
  stations : workstation array;
  c_placement : Placement.t;
  mutable c_faults : Faults.t option;
  mutable c_health : Health.t option;
}

let engine t = t.eng
let net t = t.c_net
let cfg t = t.c_cfg
let directory t = t.c_dir
let tracer t = t.c_tracer
let rng t = Rng.split t.c_rng
let file_server t = t.c_fs
let name_server t = t.c_ns
let faults t = t.c_faults
let health t = t.c_health
let placement t = t.c_placement
let size t = Array.length t.stations
let workstation t i = t.stations.(i)
let workstations t = Array.to_list t.stations

let sum_stat t c =
  Array.fold_left (fun acc ws -> acc + Kernel.count ws.ws_kernel c) 0 t.stations

(* The audit rule of the benchmark's leak count: a guest logical host
   resident on a running kernel whose program manager owns no live record
   for it is memory nobody will release. *)
let orphan_guests t =
  List.concat_map
    (fun ws ->
      let k = ws.ws_kernel in
      let live lh =
        match
          Progtable.find (Program_manager.table ws.ws_pm) (Logical_host.id lh)
        with
        | Some { Progtable.p_status = Running | Migrating | Suspended; _ } ->
            true
        | Some { Progtable.p_status = Done _; _ } | None -> false
      in
      if not (Kernel.running k) then []
      else
        List.filter
          (fun lh -> Logical_host.priority lh = Cpu.Background && not (live lh))
          (Kernel.logical_hosts k))
    (workstations t)

(* A workstation's machine services, brought up on [k] at creation and
   again on a reboot: a program manager (on the next split of [rng]) with
   the cluster's [health] view, joined to its pod's scheduling group, and
   a display server registered under "wsN:display". *)
let start_services ~cfg ~directory ~programs ~rng ~placement ~ns ~health k =
  let host = Kernel.host_name k in
  let pm =
    Program_manager.create k ~cfg ~directory ~programs ~rng:(Rng.split rng)
  in
  Program_manager.set_health pm health;
  (match Placement.pod_of placement ~host with
  | Some pod -> Program_manager.join_pod pm ~pod
  | None -> ());
  let d = Display_server.create k in
  Name_server.register_direct ns ~name:(host ^ ":display")
    (Display_server.pid d);
  (pm, d)

let find_workstation t name =
  List.find_opt
    (fun ws -> String.equal (Kernel.host_name ws.ws_kernel) name)
    (workstations t)

(* Wire a fault plan's actions onto this cluster's subsystems. Host
   names are validated up front so a typo fails at construction, not
   mid-run. *)
let install_faults t plan =
  let ws_of host =
    match find_workstation t host with
    | Some ws -> ws
    | None -> invalid_arg (Printf.sprintf "Cluster: no workstation %S" host)
  in
  List.iter
    (function
      | Faults.Crash_host { host; _ }
      | Faults.Reboot_host { host; _ }
      | Faults.Slow_host { host; _ }
      | Faults.Flaky_host { host; _ } ->
          ignore (ws_of host)
      | Faults.Crash_rack { hosts; _ } ->
          List.iter (fun h -> ignore (ws_of h)) hosts
      | Faults.Loss_window _ -> ()
      | Faults.Partition_bridge _ ->
          if t.c_far == t.c_net then
            invalid_arg "Cluster: partition fault on an unbridged cluster")
    plan;
  let base_loss = Ethernet.loss t.c_net in
  let hooks =
    {
      (* Flaky-host churn and overlapping plans can ask to crash an
         already-down (or reboot an already-up) machine; the hooks are
         idempotent so the plan need not track kernel state. *)
      Faults.h_crash =
        (fun host ->
          let k = (ws_of host).ws_kernel in
          if Kernel.running k then Kernel.shutdown k);
      h_reboot =
        (fun host ->
          let ws = ws_of host in
          let k = ws.ws_kernel in
          if not (Kernel.running k) then begin
            Kernel.reboot k;
            (* The machine services and their group memberships died
               with the crash; a cold boot brings fresh ones up under
               the preserved well-known pids. *)
            let pm, d =
              start_services ~cfg:t.c_cfg ~directory:t.c_dir
                ~programs:t.c_programs ~rng:t.c_rng ~placement:t.c_placement
                ~ns:t.c_ns ~health:t.c_health k
            in
            ws.ws_pm <- pm;
            ws.ws_display <- d
          end);
      h_loss = (fun p -> Ethernet.set_loss t.c_net p);
      h_base_loss = (fun () -> base_loss);
      h_partition =
        (fun ~up ->
          if up then Ethernet.heal_bridge t.c_net t.c_far
          else Ethernet.sever_bridge t.c_net t.c_far);
      h_slow =
        (fun host f -> Cpu.set_slowdown (Kernel.cpu (ws_of host).ws_kernel) f);
    }
  in
  Faults.install t.eng t.c_tracer hooks plan

(* Pod load gossip: one daemon per pod, observing from the file-server
   machine like the failure detector (fault plans only crash
   workstations, so the observers survive any churn). Each cycle —
   seeded interval plus jitter, like Health probes — multicasts the
   ordinary Pm_list_programs survey to the pod's scheduling group and
   folds the replies (total guest programs, idle-host count) into the
   placement policy's EWMA summaries. No new protocol messages. *)
let gossip_interval = Time.of_sec 1.
let gossip_jitter = Time.of_ms 150.
let gossip_window = Time.of_ms 200.

let start_gossip t =
  let p = t.c_placement in
  let eng = t.eng in
  let fsk = t.c_fs_kernel in
  for pod = 0 to Placement.pod_count p - 1 do
    let rng = Rng.split t.c_rng in
    let lh = Kernel.create_logical_host fsk ~priority:Cpu.Foreground in
    let self = Vproc.pid (Kernel.create_process fsk lh) in
    ignore
      (Proc.spawn eng
         (fun () ->
           let rec loop () =
             Proc.sleep eng
               (Time.add gossip_interval
                  (Rng.uniform_span rng Time.zero gossip_jitter));
             let queue, idle =
               List.fold_left
                 (fun (q, i) (_, _, programs, _) ->
                   let n = List.length programs in
                   (q + n, if n = 0 then i + 1 else i))
                 (0, 0)
                 (Remote_exec.survey fsk ~self ~group:(Ids.pod_group pod)
                    ~window:gossip_window)
             in
             Placement.note_pod_load p ~pod ~queue ~idle;
             loop ()
           in
           loop ()))
  done

(* Store-and-forward delay per frame at the bridge of a bridged cluster. *)
let bridge_delay = Time.of_ms 2.

let create ?(seed = 1985) ?(workstations = 6) ?(bridged = 0)
    ?(memory_bytes = 2 * 1024 * 1024)
    ?(cfg = Config.default) ?(net_config = Ethernet.default_config)
    ?disk_us_per_kb ?(trace = false) ?faults ()  =
  assert (bridged >= 0 && bridged <= workstations);
  (* Fresh id/txn sequences per cluster: every replica then produces
     identical internal identifiers (and so identical Hashtbl layouts
     and iteration orders) no matter which domain runs it — the
     invariant behind byte-identical [-j 1] vs [-j N] sweep output. *)
  Proc.reset_ids ();
  Kernel.reset_txn_ids ();
  Address_space.reset_ids ();
  let eng = Engine.create () in
  let c_rng = Rng.create seed in
  (* The tracer exists before the networks so they can emit typed frame
     events; it consumes no randomness, so creating it early does not
     perturb the RNG split sequence. *)
  let c_tracer = Tracer.create eng in
  Tracer.set_enabled c_tracer trace;
  let c_net =
    Ethernet.create ~config:net_config ~tracer:c_tracer ~seg:0 eng
      (Rng.split c_rng)
  in
  (* An optional second segment behind a store-and-forward bridge. *)
  let far_net =
    if bridged = 0 then c_net
    else begin
      let n =
        Ethernet.create ~config:net_config ~tracer:c_tracer ~seg:1 eng
          (Rng.split c_rng)
      in
      Ethernet.bridge c_net n ~forward_delay:bridge_delay;
      n
    end
  in
  let alloc = Ids.Lh_allocator.create () in
  let c_dir = Directory.of_kernels () in
  let c_programs = Progtable.registry () in
  let boot_kernel ?(net = c_net) ~station ~host_name ~memory () =
    let k =
      Kernel.create ~engine:eng ~rng:(Rng.split c_rng) ~tracer:c_tracer
        ~params:cfg.Config.os ~net ~station:(Addr.of_int station) ~host_name
        ~allocator:alloc ~memory_bytes:memory
    in
    Directory.register c_dir k;
    k
  in
  (* Station 0 is the server machine: bigger memory, no program manager
     volunteering (it is not somebody's workstation). *)
  let fs_kernel =
    boot_kernel ~station:0 ~host_name:"fileserver" ~memory:(16 * 1024 * 1024)
      ()
  in
  let c_fs = File_server.create ?disk_us_per_kb fs_kernel in
  let c_ns = Name_server.create fs_kernel in
  Programs.publish_images c_fs;
  List.iter
    (fun spec ->
      File_server.add_file c_fs
        ~path:(spec.Programs.prog_name ^ ".in")
        ~bytes:(64 * 1024))
    Programs.all;
  let c_placement = Placement.of_config cfg in
  let pod_size = Placement.pod_size c_placement in
  let stations =
    Array.init workstations (fun i ->
        let host_name = Printf.sprintf "ws%d" i in
        let segment = if i >= workstations - bridged then 1 else 0 in
        let net = if segment = 1 then far_net else c_net in
        let k =
          boot_kernel ~net ~station:(i + 1) ~host_name ~memory:memory_bytes ()
        in
        if pod_size > 0 then
          Placement.register_host c_placement ~host:host_name ~pod:(i / pod_size);
        let pm, d =
          start_services ~cfg ~directory:c_dir ~programs:c_programs ~rng:c_rng
            ~placement:c_placement ~ns:c_ns ~health:None k
        in
        { ws_index = i; ws_segment = segment; ws_kernel = k; ws_pm = pm; ws_display = d })
  in
  let t =
    {
      eng;
      c_net;
      c_far = far_net;
      c_cfg = cfg;
      c_dir;
      c_programs;
      c_tracer;
      c_rng;
      c_fs;
      c_ns;
      c_fs_kernel = fs_kernel;
      stations;
      c_placement;
      c_faults = None;
      c_health = None;
    }
  in
  if pod_size > 0 then start_gossip t;
  (match faults with
  | None -> ()
  | Some plan -> t.c_faults <- Some (install_faults t plan));
  t

let env_for t ws =
  Env.make
    ~name_server:(Name_server.pid t.c_ns)
    ~name_cache:
      [
        ("fileserver", File_server.pid t.c_fs);
        ("nameserver", Name_server.pid t.c_ns);
      ]
    ~file_server:(File_server.pid t.c_fs)
    ~display:(Display_server.pid ws.ws_display)
    ~origin_host:(Kernel.host_name ws.ws_kernel)
    ()

let user t ~ws ~name:_ body =
  let w = t.stations.(ws) in
  let lh = Kernel.create_logical_host w.ws_kernel ~priority:Cpu.Foreground in
  Kernel.spawn_process w.ws_kernel lh (fun vp ->
      body w.ws_kernel (Vproc.pid vp))

(* The failure detector observes from the file server: fault plans only
   name workstations, so the observer itself never crashes and its view
   survives any churn the plan throws at the cluster. *)
let enable_health t =
  match t.c_health with
  | Some h -> h
  | None ->
      let peers =
        List.map
          (fun ws ->
            ( Kernel.host_name ws.ws_kernel,
              Logical_host.id (Kernel.host_lh ws.ws_kernel) ))
          (workstations t)
      in
      let h = Health.start t.c_fs_kernel ~peers in
      t.c_health <- Some h;
      Array.iter
        (fun ws -> Program_manager.set_health ws.ws_pm (Some h))
        t.stations;
      h

let context t ~ws ~self =
  let w = t.stations.(ws) in
  Context.make ?health:t.c_health ~placement:t.c_placement
    ~kernel:w.ws_kernel ~cfg:t.c_cfg ~self ~env:(env_for t w) ()

let shell t ~ws ~name body =
  user t ~ws ~name (fun _k self -> body (context t ~ws ~self))

let run ?until ?max_steps t = Engine.run ?until ?max_steps t.eng

let now t = Engine.now t.eng
