(* Per-layer counters read from the public accessors of finished
   clusters, summed over every cluster a workload runs, plus the
   end-of-run resource audit. Everything here is deterministic per seed:
   it is read after the simulation, never from the host clock. *)

(* Named kernel counters ([Kernel.stat]) the benchmark reports. *)
let kernel_stats =
  [
    "sends"; "group_sends"; "retransmissions"; "sends_failed"; "where_is";
    "page_faults"; "page_fault_serves"; "xfer_chunks_hit"; "xfer_chunks_miss";
    "xfer_bytes_saved"; "img_chunks_hit"; "img_chunks_miss";
  ]

type t = {
  mutable events : int;
  mutable frames_sent : int;
  mutable frames_delivered : int;
  mutable frames_dropped : int;
  mutable bytes_carried : int;
  mutable fs_requests : int;
  mutable selections : int;
  mutable placement_timeouts : int;
  mutable health_probes : int;
  mutable false_suspicions : int;
  mutable faults_fired : int;
  mutable leaked_lh : int;
  mutable leaked_bytes : int;
  kstats : (string, int ref) Hashtbl.t;
}

let create () =
  let kstats = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace kstats s (ref 0)) kernel_stats;
  {
    events = 0;
    frames_sent = 0;
    frames_delivered = 0;
    frames_dropped = 0;
    bytes_carried = 0;
    fs_requests = 0;
    selections = 0;
    placement_timeouts = 0;
    health_probes = 0;
    false_suspicions = 0;
    faults_fired = 0;
    leaked_lh = 0;
    leaked_bytes = 0;
    kstats;
  }

let kstat t name = !(Hashtbl.find t.kstats name)

(* A guest logical host still resident on a running kernel whose program
   manager holds no live program for it: memory nobody will release. *)
let leaked_guests cl =
  List.fold_left
    (fun (n, bytes) (ws : Cluster.workstation) ->
      let k = ws.Cluster.ws_kernel in
      let tbl = Program_manager.table ws.Cluster.ws_pm in
      if not (Kernel.running k) then (n, bytes)
      else
        List.fold_left
          (fun (n, bytes) lh ->
            let live =
              match Progtable.find tbl (Logical_host.id lh) with
              | Some { Progtable.p_status = Running | Migrating | Suspended; _ }
                ->
                  true
              | Some { Progtable.p_status = Done _; _ } | None -> false
            in
            if Logical_host.priority lh = Cpu.Background && not live then
              (n + 1, bytes + Logical_host.total_bytes lh)
            else (n, bytes))
          (n, bytes) (Kernel.logical_hosts k))
    (0, 0) (Cluster.workstations cl)

let add t cl =
  let net = Cluster.net cl in
  let fs = Cluster.file_server cl in
  let placement = Cluster.placement cl in
  t.events <- t.events + Engine.events_fired (Cluster.engine cl);
  t.frames_sent <- t.frames_sent + Ethernet.frames_sent net;
  t.frames_delivered <- t.frames_delivered + Ethernet.frames_delivered net;
  t.frames_dropped <- t.frames_dropped + Ethernet.frames_dropped net;
  t.bytes_carried <- t.bytes_carried + Ethernet.bytes_carried net;
  t.fs_requests <- t.fs_requests + File_server.request_count fs;
  t.selections <- t.selections + Placement.selections placement;
  t.placement_timeouts <- t.placement_timeouts + Placement.timeouts placement;
  (match Cluster.health cl with
  | Some h ->
      t.health_probes <- t.health_probes + Health.probes h;
      t.false_suspicions <- t.false_suspicions + Health.false_suspicions h
  | None -> ());
  (match Cluster.faults cl with
  | Some f -> t.faults_fired <- t.faults_fired + Faults.injected f
  | None -> ());
  let kernels =
    File_server.host fs
    :: List.map (fun ws -> ws.Cluster.ws_kernel) (Cluster.workstations cl)
  in
  List.iter
    (fun name ->
      let r = Hashtbl.find t.kstats name in
      List.iter (fun k -> r := !r + Kernel.stat k name) kernels)
    kernel_stats;
  let n, bytes = leaked_guests cl in
  t.leaked_lh <- t.leaked_lh + n;
  t.leaked_bytes <- t.leaked_bytes + bytes

let merge t src =
  t.events <- t.events + src.events;
  t.frames_sent <- t.frames_sent + src.frames_sent;
  t.frames_delivered <- t.frames_delivered + src.frames_delivered;
  t.frames_dropped <- t.frames_dropped + src.frames_dropped;
  t.bytes_carried <- t.bytes_carried + src.bytes_carried;
  t.fs_requests <- t.fs_requests + src.fs_requests;
  t.selections <- t.selections + src.selections;
  t.placement_timeouts <- t.placement_timeouts + src.placement_timeouts;
  t.health_probes <- t.health_probes + src.health_probes;
  t.false_suspicions <- t.false_suspicions + src.false_suspicions;
  t.faults_fired <- t.faults_fired + src.faults_fired;
  t.leaked_lh <- t.leaked_lh + src.leaked_lh;
  t.leaked_bytes <- t.leaked_bytes + src.leaked_bytes;
  Hashtbl.iter (fun name r -> let d = Hashtbl.find t.kstats name in d := !d + !r) src.kstats

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let mb bytes = float_of_int bytes /. 1048576.

(* The deterministic per-layer counters, as (name, unit, value). *)
let metrics t =
  let f = float_of_int in
  [
    ("sim.events", "count", f t.events);
    ("cluster.faults_fired", "count", f t.faults_fired);
    ("net.frames_sent", "count", f t.frames_sent);
    ("net.frames_delivered", "count", f t.frames_delivered);
    ("net.deliveries_per_frame", "ratio", ratio t.frames_delivered t.frames_sent);
    ("net.frames_dropped", "count", f t.frames_dropped);
    ("net.mb_carried", "MB", mb t.bytes_carried);
    ("vos.ipc_sends", "count", f (kstat t "sends"));
    ("vos.group_sends", "count", f (kstat t "group_sends"));
    ("vos.retransmissions", "count", f (kstat t "retransmissions"));
    ("vos.sends_failed", "count", f (kstat t "sends_failed"));
    ("vos.where_is", "count", f (kstat t "where_is"));
    ("vos.page_faults", "count", f (kstat t "page_faults"));
    ("vos.page_fault_serves", "count", f (kstat t "page_fault_serves"));
    ( "vos.xfer_hit_ratio",
      "ratio",
      ratio (kstat t "xfer_chunks_hit")
        (kstat t "xfer_chunks_hit" + kstat t "xfer_chunks_miss") );
    ( "vos.img_hit_ratio",
      "ratio",
      ratio (kstat t "img_chunks_hit")
        (kstat t "img_chunks_hit" + kstat t "img_chunks_miss") );
    ("vos.xfer_mb_saved", "MB", mb (kstat t "xfer_bytes_saved"));
    ("services.fs_requests", "count", f t.fs_requests);
    ("core.selections", "count", f t.selections);
    ("core.placement_timeouts", "count", f t.placement_timeouts);
    ("core.health_probes", "count", f t.health_probes);
    ("core.false_suspicions", "count", f t.false_suspicions);
    ("check.leaked_lh", "count", f t.leaked_lh);
    ("check.leaked_lh_mb", "MB", mb t.leaked_bytes);
  ]
