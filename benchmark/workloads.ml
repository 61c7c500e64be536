(* The benchmark's four workloads. Each runs as [parts] independent
   parts, every part with its own seed derived from the benchmark seed
   (inputs and cluster seed alike). A part is built by [setup] and driven
   by the returned [run]; [finish] then adds the part's deterministic
   outcome to an accumulator, so samples pool across parts. The caller
   times [setup] and [run] from outside. *)

let parts = 9
let part_seed ~seed ~part = (seed * 10) + part
let sec = Time.of_sec

(* {1 Pooled outcomes} *)

type acc = {
  tally : Tally.t;
  latency : Stats.Summary.t;
  freeze : Stats.Summary.t;
  queue_wait : Stats.Summary.t;
  submit_to_running : Stats.Summary.t;
  mutable sessions : int;
  mutable in_flight_sum : float;
  mutable cap_sum : int;
  mutable attempted : int;
  mutable failed : int;  (* operations that did not complete *)
  mutable ops : int;  (* operations completed *)
  mutable horizon_s : float;  (* virtual seconds the operations were offered over *)
  mutable counts : (string * int ref) list;
  mutable checks : (string * bool) list;
  mutable notes : string list;
}

let acc () =
  {
    tally = Tally.create ();
    latency = Stats.Summary.create ();
    freeze = Stats.Summary.create ();
    queue_wait = Stats.Summary.create ();
    submit_to_running = Stats.Summary.create ();
    sessions = 0;
    in_flight_sum = 0.;
    cap_sum = 0;
    attempted = 0;
    failed = 0;
    ops = 0;
    horizon_s = 0.;
    counts = [];
    checks = [];
    notes = [];
  }

let count a name n =
  match List.assoc_opt name a.counts with
  | Some r -> r := !r + n
  | None -> a.counts <- a.counts @ [ (name, ref n) ]

let check a name ok =
  if List.mem_assoc name a.checks then
    a.checks <- List.map (fun (k, v) -> (k, if k = name then v && ok else v)) a.checks
  else a.checks <- a.checks @ [ (name, ok) ]

let note a s = a.notes <- a.notes @ [ s ]

let copy_samples ~src ~dst = List.iter (Stats.Summary.record dst) (Stats.Summary.samples src)

(* Pool [src] into [dst]. *)
let merge dst src =
  Tally.merge dst.tally src.tally;
  copy_samples ~src:src.latency ~dst:dst.latency;
  copy_samples ~src:src.freeze ~dst:dst.freeze;
  copy_samples ~src:src.queue_wait ~dst:dst.queue_wait;
  copy_samples ~src:src.submit_to_running ~dst:dst.submit_to_running;
  dst.sessions <- dst.sessions + src.sessions;
  dst.in_flight_sum <- dst.in_flight_sum +. src.in_flight_sum;
  dst.cap_sum <- dst.cap_sum + src.cap_sum;
  dst.attempted <- dst.attempted + src.attempted;
  dst.failed <- dst.failed + src.failed;
  dst.ops <- dst.ops + src.ops;
  dst.horizon_s <- dst.horizon_s +. src.horizon_s;
  List.iter (fun (n, r) -> count dst n !r) src.counts;
  List.iter (fun (n, ok) -> check dst n ok) src.checks;
  List.iter (note dst) src.notes

let pct s p = if Stats.Summary.count s = 0 then 0. else Stats.Summary.percentile s p

type result = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  metrics : (string * string * float) list;
      (** Deterministic (virtual-time or count) metrics: name, unit, value. *)
  samples : (string * int) list;  (** Sample count behind each percentile. *)
  notes : string list;
}

let result (a : acc) =
  let per_op x = if a.ops = 0 then 0. else x /. float_of_int a.ops in
  let per_session x = if a.sessions = 0 then 0. else x /. float_of_int a.sessions in
  {
    attempted = a.attempted;
    failed = a.failed;
    checks = a.checks;
    metrics =
      [
        ( "completed_per_vs",
          "1/s",
          if a.horizon_s > 0. then float_of_int a.ops /. a.horizon_s else 0. );
        ("latency_p50_ms", "ms", pct a.latency 50.);
        ("latency_p99_ms", "ms", pct a.latency 99.);
        ("wire_kb_per_op", "KB", per_op (float_of_int a.tally.Tally.bytes_carried /. 1024.));
        ("core.freeze_p50_ms", "ms", pct a.freeze 50.);
        ("core.freeze_p99_ms", "ms", pct a.freeze 99.);
        ( "check.failed_frac",
          "frac",
          if a.attempted = 0 then 0.
          else float_of_int a.failed /. float_of_int a.attempted );
        ("serve.queue_wait_p50_ms", "ms", pct a.queue_wait 50.);
        ("serve.queue_wait_p99_ms", "ms", pct a.queue_wait 99.);
        ("serve.submit_to_running_p99_ms", "ms", pct a.submit_to_running 99.);
        ("serve.mean_in_flight", "count", per_session a.in_flight_sum);
        ("serve.cap_final", "count", per_session (float_of_int a.cap_sum));
      ]
      @ Tally.metrics a.tally
      @ List.map (fun (n, r) -> (n, "count", float_of_int !r)) a.counts;
    samples =
      [ ("latency", Stats.Summary.count a.latency); ("freeze", Stats.Summary.count a.freeze) ];
    notes = a.notes;
  }

(* {1 Workloads} *)

type instance = { run : unit -> unit; finish : acc -> unit }

type t = {
  name : string;
  describe : smoke:bool -> string;
  setup :
    seed:int -> part:int -> smoke:bool -> trace:bool ->
    on_cluster:(Cluster.t -> unit) -> instance;
  verify : seed:int -> (string * bool) list;
      (** Extra correctness checks, run outside the timed phases. *)
}

let no_verify ~seed:_ = []

(* Host seconds spent inside [Cluster.create], summed since the last
   reset: the cluster layer's share of set-up (and, for the fuzzing
   workload, of the run). *)
let create_s = ref 0.

let create_cluster ?seed ?workstations ?bridged ?memory_bytes ?cfg ?net_config
    ?disk_us_per_kb ?trace ?faults () =
  let t0 = Unix.gettimeofday () in
  let cl =
    Cluster.create ?seed ?workstations ?bridged ?memory_bytes ?cfg ?net_config
      ?disk_us_per_kb ?trace ?faults ()
  in
  create_s := !create_s +. (Unix.gettimeofday () -. t0);
  cl

(* {1 Serve workloads} *)

(* Open-loop Poisson submission instants over [0, duration), conditioned
   on their count: rate x duration instants drawn uniformly and sorted.
   Fixing the count keeps the amount of work the same for every seed. *)
let poisson_instants rng ~rate ~duration =
  let n = int_of_float (Float.round (rate *. duration)) in
  let a = Array.init n (fun _ -> Rng.float rng duration) in
  Array.sort compare a;
  Array.to_list (Array.map sec a)

(* One finished session's samples, completions and counters into the
   accumulator; the caller decides what counts as an attempted and a
   failed operation. *)
let absorb a s =
  let open Serve.Session in
  let m = metrics s in
  copy_samples ~src:m.m_queue_wait_ms ~dst:a.queue_wait;
  copy_samples ~src:m.m_submit_to_running_ms ~dst:a.submit_to_running;
  copy_samples ~src:m.m_submit_to_complete_ms ~dst:a.latency;
  copy_samples ~src:m.m_freeze_ms ~dst:a.freeze;
  a.sessions <- a.sessions + 1;
  a.in_flight_sum <- a.in_flight_sum +. m.m_mean_in_flight;
  a.cap_sum <- a.cap_sum + m.m_cap_final;
  a.ops <- a.ops + m.m_completed;
  count a "core.migrations" m.m_migrations;
  count a "core.balancer_surveys" m.m_balancer_surveys;
  count a "serve.credit_sheds" m.m_credit_sheds;
  count a "serve.rejected" m.m_rejected;
  count a "serve.shed" m.m_shed;
  count a "serve.refused" m.m_refused;
  count a "serve.failed" m.m_failed;
  count a "serve.outstanding" m.m_outstanding;
  check a "accounting identity with 0 stuck"
    (m.m_stuck = 0
    && m.m_submitted
       = m.m_rejected + m.m_shed + m.m_refused + m.m_completed + m.m_failed
         + m.m_outstanding)

(* One session on one cluster, arrivals replayed from the part's seed. *)
let serve_part ~seed ~trace ~on_cluster ~workstations ?cfg ?net_config
    ?disk_us_per_kb ~rate ~duration ~params () =
  let instants = poisson_instants (Rng.create seed) ~rate ~duration in
  let cl =
    create_cluster ~seed ~workstations ?cfg ?net_config ?disk_us_per_kb ~trace ()
  in
  on_cluster cl;
  let params =
    {
      params with
      Serve.Session.arrivals = Serve.Session.Trace instants;
      duration = sec duration;
    }
  in
  let s = Serve.Session.create ~params cl in
  let finish a =
    absorb a s;
    let m = Serve.Session.metrics s in
    a.attempted <- a.attempted + m.Serve.Session.m_submitted;
    a.failed <- a.failed + m.Serve.Session.m_submitted - m.Serve.Session.m_completed;
    a.horizon_s <- a.horizon_s +. duration;
    Tally.add a.tally cl
  in
  { run = (fun () -> Serve.Session.drain s); finish }

(* The paper's own setting run as a service: 32 workstations, 1985
   calibration, flat placement; CPU slicing, bulk frames, kernel IPC and
   pre-copy migration dominate. *)
let paper_pool =
  let horizon ~smoke = if smoke then 30. else 800. in
  {
    name = "paper-pool";
    describe =
      (fun ~smoke ->
        Printf.sprintf
          "32 ws, Config.default (flat placement), open-loop Poisson 1.0 req/s \
           for %g virtual s per part, max_in_flight 32, balancer every 5 s"
          (horizon ~smoke));
    setup =
      (fun ~seed ~part ~smoke ~trace ~on_cluster ->
        serve_part ~seed:(part_seed ~seed ~part) ~trace ~on_cluster ~workstations:32
          ~rate:1.0 ~duration:(horizon ~smoke)
          ~params:
            { Serve.Session.default_params with Serve.Session.max_in_flight = 32 }
          ());
    verify = no_verify;
  }

(* The serve-pods cell configuration: modern peripherals so placement
   and autoscaling, not 1985's disk and NIC, set the pace. *)
let pods_cfg =
  {
    Config.default with
    Config.placement = Config.Load_predictive { pod_size = 32; alpha = 0.3 };
    os =
      {
        Os_params.default with
        Os_params.local_op = Time.of_us 20;
        bulk_pacing =
          { Transfer.data_frame_bytes = 1024; per_frame_cpu = Time.of_us 10 };
      };
    candidacy_delay = Time.of_ms 2.;
    candidacy_jitter = Time.of_ms 1.;
  }

let pods_rate = 64.

(* The serve-pods configuration at 1024 workstations below saturation:
   multicast fan-out, binding caches and placement gossip dominate;
   almost no migrations. *)
let pods_scale =
  let size ~smoke = if smoke then (128, 0.25) else (1024, 2.) in
  {
    name = "pods-scale";
    describe =
      (fun ~smoke ->
        let ws, d = size ~smoke in
        Printf.sprintf
          "%d ws, predictive pods of 32, modern peripherals, open-loop Poisson \
           %g req/s for %g virtual s per part, autoscaler 64-2048"
          ws pods_rate d);
    setup =
      (fun ~seed ~part ~smoke ~trace ~on_cluster ->
        let ws, duration = size ~smoke in
        serve_part ~seed:(part_seed ~seed ~part) ~trace ~on_cluster ~workstations:ws
          ~cfg:pods_cfg
          ~net_config:
            { Ethernet.default_config with Ethernet.bandwidth_bytes_per_sec = 125_000_000 }
          ~disk_us_per_kb:3 ~rate:pods_rate ~duration
          ~params:
            {
              Serve.Session.default_params with
              Serve.Session.max_in_flight = 512;
              queue_limit = 2048;
              autoscale =
                Some
                  {
                    Serve.Session.default_autoscale with
                    Serve.Session.au_min = 64;
                    au_max = 2048;
                  };
            }
          ());
    verify = no_verify;
  }

(* {1 Migration churn} *)

let churn_programs = [| "tex"; "optimizer"; "cc68"; "linking loader" |]
let churn_hosts = 8
let churn_attempts ~smoke = if smoke then 10 else 2_222

(* Four long-lived programs, each relaunched on its home host (ws0-ws3)
   when it completes, and a closed-loop driver that migrates one of them
   every 0.25 virtual s to a host drawn from the seed, alternating
   pre-copy and copy-on-reference. The driver only asks for moves that
   can succeed: the program it picks is running, and the destination
   neither runs one of the four nor is about to receive a relaunch (a
   busy host declines guests). Relaunches name their host, so no
   multicast selection is involved. *)
let churn_part ~seed ~smoke ~trace ~on_cluster =
  let attempts = churn_attempts ~smoke in
  let rng = Rng.create seed in
  let picks = Array.init attempts (fun _ -> Rng.int rng (Array.length churn_programs)) in
  (* 840 = lcm(1..8): any count of free hosts divides it evenly. *)
  let offsets = Array.init attempts (fun _ -> Rng.int rng 840) in
  let cfg =
    {
      Config.default with
      Config.max_guests = 4096;
      os = { Os_params.default with Os_params.content_cache_bytes = 1 lsl 20 };
    }
  in
  let cl =
    create_cluster ~seed ~workstations:churn_hosts ~memory_bytes:(64 lsl 20) ~cfg
      ~trace ()
  in
  on_cluster cl;
  let eng = Cluster.engine cl in
  let ws i = Cluster.workstation cl i in
  let index_of host =
    match Cluster.find_workstation cl host with
    | Some w -> w.Cluster.ws_index
    | None -> invalid_arg ("unknown host " ^ host)
  in
  (* Where each program lives now: (logical host, host index). *)
  let slots = Array.make (Array.length churn_programs) None in
  let stop = ref false and driver_end = ref None in
  let launch_failures = ref 0 and relaunches = ref 0 in
  let tried = ref 0 and void = ref 0 and failures = ref [] in
  let latency = Stats.Summary.create () and freeze = Stats.Summary.create () in
  Array.iteri
    (fun i prog ->
      ignore
        (Cluster.shell cl ~ws:(i + 4) ~name:("keep-" ^ prog) (fun ctx ->
             let home = Remote_exec.Named (Kernel.host_name (ws i).Cluster.ws_kernel) in
             let rec loop () =
               if not !stop then
                 match Remote_exec.exec ctx ~prog ~target:home with
                 | Error _ ->
                     incr launch_failures;
                     Proc.sleep eng (sec 1.);
                     loop ()
                 | Ok h ->
                     slots.(i) <- Some (h.Remote_exec.h_lh, index_of h.Remote_exec.h_host);
                     ignore (Remote_exec.wait ctx h);
                     slots.(i) <- None;
                     incr relaunches;
                     loop ()
             in
             loop ())))
    churn_programs;
  let running (lh, at) =
    match Progtable.find (Program_manager.table (ws at).Cluster.ws_pm) lh with
    | Some { Progtable.p_status = Progtable.Running; _ } -> true
    | _ -> false
  in
  let migrate ctx k =
    let n = Array.length churn_programs in
    let rec live j =
      if j = n then None
      else
        let i = (picks.(k) + j) mod n in
        match slots.(i) with Some s when running s -> Some (i, s) | _ -> live (j + 1)
    in
    (* A host is taken when one of the four runs there, or is about to:
       an empty slot [i] is a relaunch on its home host, ws[i]. *)
    let taken h =
      Array.exists Fun.id
        (Array.mapi (fun i -> function Some (_, at) -> at = h | None -> i = h) slots)
    in
    let free = List.filter (fun h -> not (taken h)) (List.init churn_hosts Fun.id) in
    match (live 0, free) with
    | None, _ | _, [] -> ()
    | Some (i, (lh, src)), free -> (
        incr tried;
        let dst = List.nth free (offsets.(k) mod List.length free) in
        let strategy =
          if k land 1 = 0 then Protocol.Precopy else Protocol.Copy_on_reference
        in
        let reply =
          Kernel.send (Context.kernel ctx) ~src:(Context.self ctx)
            ~dst:(Program_manager.pid (ws src).Cluster.ws_pm)
            (Message.make
               (Protocol.Pm_migrate
                  {
                    lh = Some lh;
                    dest = Some (Kernel.host_name (ws dst).Cluster.ws_kernel);
                    force_destroy = false;
                    strategy;
                  }))
        in
        match reply with
        | Ok { Message.body = Protocol.Pm_migrated [ o ]; _ } ->
            Stats.Summary.record latency (Time.to_ms o.Protocol.m_total);
            Stats.Summary.record freeze (Time.to_ms (Protocol.freeze_span o));
            if slots.(i) <> None then slots.(i) <- Some (lh, index_of o.Protocol.m_dest)
        | Ok { Message.body = Protocol.Pm_migrate_failed _; _ }
          when not (running (lh, src)) ->
            (* The program finished while the request was on the wire:
               nothing was left to move, so the request does not count. *)
            decr tried;
            incr void
        | Ok { Message.body = Protocol.Pm_migrate_failed m; _ } -> failures := m :: !failures
        | Ok _ -> failures := "malformed reply" :: !failures
        | Error e -> failures := Format.asprintf "%a" Kernel.pp_send_error e :: !failures)
  in
  ignore
    (Cluster.shell cl ~ws:(churn_hosts - 1) ~name:"churn" (fun ctx ->
         for k = 0 to attempts - 1 do
           Proc.sleep eng (Time.of_ms 250.);
           migrate ctx k
         done;
         driver_end := Some (Engine.now eng)));
  let run () =
    while !driver_end = None do
      Cluster.run cl ~until:(Time.add (Cluster.now cl) (sec 60.))
    done;
    stop := true;
    Cluster.run cl ~until:(Time.add (Cluster.now cl) (sec 60.))
  in
  let finish a =
    let ok = Stats.Summary.count latency in
    copy_samples ~src:latency ~dst:a.latency;
    copy_samples ~src:freeze ~dst:a.freeze;
    a.attempted <- a.attempted + !tried;
    a.ops <- a.ops + ok;
    a.failed <- a.failed + (!tried - ok);
    a.horizon_s <- a.horizon_s +. Time.to_sec (Option.value !driver_end ~default:Time.zero);
    Tally.add a.tally cl;
    count a "core.migrations" ok;
    count a "churn.void_requests" !void;
    count a "churn.relaunches" !relaunches;
    check a "every program launch placed" (!launch_failures = 0);
    check a "programs relaunched" (!relaunches > 0);
    List.iter (note a) (List.sort_uniq compare !failures)
  in
  { run; finish }

(* Closed-loop migration of four live programs over 8 hosts with 1 MiB
   content caches: the migration, address-space and transfer path
   dominates, with no serve or placement work. *)
let migrate_churn =
  {
    name = "migrate-churn";
    describe =
      (fun ~smoke ->
        Printf.sprintf
          "8 ws x 64 MB, max_guests 4096, 1 MiB content caches (start empty); \
           tex/optimizer/cc68/linking loader kept alive; one migration every \
           0.25 virtual s, pre-copy and copy-on-reference alternating, %d \
           attempts per part"
          (churn_attempts ~smoke));
    setup =
      (fun ~seed ~part ~smoke ~trace ~on_cluster ->
        churn_part ~seed:(part_seed ~seed ~part) ~smoke ~trace ~on_cluster);
    verify = no_verify;
  }

(* {1 Monitored fuzzing} *)

(* One library serve scenario, driven exactly as [Scenario.run_serve_cluster]
   drives it (same config, failure detector, monitors and session
   parameters) but with the session in the benchmark's hands, so its
   latency and accounting can be read. *)
let fuzz_one ~on_cluster (sv : Scenario.serve) =
  let open Scenario in
  let cfg =
    { (Config.with_default_budgets Config.default) with Config.placement = sv.sv_placement }
  in
  let cl =
    create_cluster ~seed:sv.sv_seed ~workstations:sv.sv_workstations
      ~bridged:sv.sv_bridged ~cfg ~trace:true
      ?faults:(match sv.sv_faults with [] -> None | plan -> Some plan)
      ()
  in
  ignore (Cluster.enable_health cl);
  let mon = Monitors.attach (Cluster.tracer cl) in
  on_cluster cl;
  let strategy =
    Option.map
      (function
        | Protocol.Vm_flush { page_server } when page_server.Ids.lh < 0 ->
            Protocol.Vm_flush { page_server = File_server.pid (Cluster.file_server cl) }
        | s -> s)
      sv.sv_strategy
  in
  let params =
    {
      Serve.Session.default_params with
      Serve.Session.arrivals =
        (match sv.sv_modulation with
        | Arrivals.Constant -> Serve.Session.Poisson sv.sv_rate
        | m -> Serve.Session.Modulated { rate = sv.sv_rate; modulation = m });
      duration = sv.sv_duration;
      progs = sv.sv_progs;
      max_in_flight = sv.sv_max_in_flight;
      queue_limit = sv.sv_queue_limit;
      balancer_interval = Some sv.sv_balancer_interval;
      strategy;
      snapshot_every = None;
      reexec_budget = Some 64;
      slo_shed_multiple = sv.sv_slo_shed;
      drain_grace = sec 30.;
      autoscale =
        (match sv.sv_placement with
        | Config.Flat_multicast -> None
        | Config.Pod_sharded _ | Config.Load_predictive _ ->
            Some
              {
                Serve.Session.default_autoscale with
                Serve.Session.au_min = max 2 (sv.sv_max_in_flight / 2);
                au_max = sv.sv_max_in_flight * 4;
              });
    }
  in
  let s = Serve.Session.create ~params cl in
  Serve.Session.drain s;
  (cl, s, mon)

let fuzz_seeds ~smoke = if smoke then 1 else 60

(* Every family at seeds [seed*1000, seed*1000 + n), dealt round-robin
   over the parts. *)
let fuzz_scenarios ~seed ~part ~smoke =
  List.concat_map
    (fun e -> List.init (fuzz_seeds ~smoke) (fun i -> Scenario.Library.serve e ~seed:((seed * 1000) + i)))
    Scenario.Library.all
  |> List.filteri (fun i _ -> i mod parts = part)

let fuzz_part ~seed ~part ~smoke ~on_cluster =
  let scenarios = fuzz_scenarios ~seed ~part ~smoke in
  (* Sessions hold their clusters: read each one as it finishes. *)
  let local = acc () in
  let run () =
    List.iter
      (fun sv ->
        let cl, s, mon = fuzz_one ~on_cluster sv in
        absorb local s;
        Tally.add local.tally cl;
        let v = List.length (Monitors.violations mon) + Monitors.dropped mon in
        let stuck = (Serve.Session.metrics s).Serve.Session.m_stuck in
        local.attempted <- local.attempted + 1;
        if v > 0 || stuck > 0 then local.failed <- local.failed + 1;
        local.horizon_s <- local.horizon_s +. Time.to_sec sv.Scenario.sv_duration;
        count local "check.violations" v;
        count local "check.monitor_inspections"
          (List.fold_left (fun n (_, k) -> n + k) 0 (Monitors.coverage mon));
        check local "zero monitor violations" (v = 0))
      scenarios
  in
  { run; finish = (fun a -> merge a local) }

(* The benchmark's copy of the scenario driver must stay faithful to
   [Scenario.run_serve_cluster]: the first seed of every family is run
   both ways and must agree on every count. *)
let fuzz_mirror_agrees ~seed =
  List.for_all
    (fun e ->
      let sv = Scenario.Library.serve e ~seed:(seed * 1000) in
      let o = Scenario.run_serve sv in
      let cl, s, mon = fuzz_one ~on_cluster:ignore sv in
      let m = Serve.Session.metrics s in
      o.Scenario.so_events = Tracer.seq (Cluster.tracer cl)
      && o.Scenario.so_submitted = m.Serve.Session.m_submitted
      && o.Scenario.so_completed = m.Serve.Session.m_completed
      && o.Scenario.so_shed = m.Serve.Session.m_shed
      && o.Scenario.so_stuck = m.Serve.Session.m_stuck
      && List.length o.Scenario.so_violations = List.length (Monitors.violations mon))
    Scenario.Library.all

(* The 7 scenario-library families x 60 seeds in serve mode with
   tracing, every monitor, the failure detector and fault plans on: the
   path that checks the repo's correctness. *)
let fuzz_monitored =
  {
    name = "fuzz-monitored";
    describe =
      (fun ~smoke ->
        Printf.sprintf
          "%d scenario families x %d seeds in serve mode, dealt over %d parts and \
           run one after another (tracing, monitors, failure detector, fault \
           plans)"
          (List.length Scenario.Library.all) (fuzz_seeds ~smoke) parts);
    setup =
      (fun ~seed ~part ~smoke ~trace:_ ~on_cluster -> fuzz_part ~seed ~part ~smoke ~on_cluster);
    verify =
      (fun ~seed ->
        [ ("benchmark scenario driver matches Scenario.run_serve", fuzz_mirror_agrees ~seed) ]);
  }

let all = [ paper_pool; pods_scale; migrate_churn; fuzz_monitored ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
