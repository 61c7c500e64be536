type target = Target_any | Target_host of int | Target_local

type job = {
  j_at : Time.t;
  j_ws : int;
  j_prog : string;
  j_target : target;
  j_migrate_after : Time.span option;
  j_strategy : Protocol.strategy;
}

type t = {
  sc_seed : int;
  sc_label : string option;
  sc_workstations : int;
  sc_bridged : int;
  sc_jobs : job list;
  sc_faults : Faults.plan;
  sc_horizon : Time.t;
  sc_expect_residual : bool;
}

(* tex (30 cpu-seconds) is excluded: it rarely finishes inside a fuzz
   horizon and only stretches wall time. *)
let programs =
  [|
    "cc68";
    "make";
    "preprocessor";
    "assembler";
    "linking loader";
    "optimizer";
    "parser";
  |]

let gen_fault_event rng ~ws ~bridged =
  let host () = Printf.sprintf "ws%d" (Rng.int rng ws) in
  let window lo_s span_s =
    let start = Time.of_us (lo_s * 1_000_000 + Rng.int rng 4_000_000) in
    let stop =
      Time.add start (Time.of_us (1_000_000 + Rng.int rng (span_s * 1_000_000)))
    in
    (start, stop)
  in
  match Rng.int rng 6 with
  | 0 ->
      let h = host () in
      let at = Time.of_us (2_000_000 + Rng.int rng 8_000_000) in
      let crash = Faults.Crash_host { host = h; at } in
      if Rng.bool rng 0.6 then
        [
          crash;
          Faults.Reboot_host
            {
              host = h;
              at = Time.add at (Time.of_us (2_000_000 + Rng.int rng 4_000_000));
            };
        ]
      else [ crash ]
  | 1 ->
      let start, stop = window 1 5 in
      [ Faults.Loss_window { p = 0.005 +. Rng.float rng 0.04; start; stop } ]
  | 2 ->
      let start, stop = window 1 8 in
      [
        Faults.Slow_host
          {
            host = host ();
            factor = 2. +. float_of_int (Rng.int rng 6);
            start;
            stop;
          };
      ]
  | 3 ->
      let start, stop = window 1 6 in
      [ Faults.Flaky_host { host = host (); start; stop } ]
  | 4 ->
      (* Correlated rack crash of 2–3 distinct hosts, each rebooted
         later so the cluster ends the scenario whole. *)
      let n = if ws > 3 && Rng.bool rng 0.5 then 3 else 2 in
      let rec pick acc =
        if List.length acc >= n then List.rev acc
        else
          let h = Rng.int rng ws in
          pick (if List.mem h acc then acc else h :: acc)
      in
      let hosts = List.map (Printf.sprintf "ws%d") (pick []) in
      let at = Time.of_us (2_000_000 + Rng.int rng 8_000_000) in
      Faults.Crash_rack { hosts; at }
      :: List.map
           (fun h ->
             Faults.Reboot_host
               {
                 host = h;
                 at =
                   Time.add at
                     (Time.of_us (2_000_000 + Rng.int rng 4_000_000));
               })
           hosts
  | _ ->
      if bridged > 0 then begin
        let start, stop = window 2 4 in
        [ Faults.Partition_bridge { start; stop } ]
      end
      else begin
        let start, stop = window 1 5 in
        [ Faults.Loss_window { p = 0.005 +. Rng.float rng 0.04; start; stop } ]
      end

let of_seed seed =
  let rng = Rng.create seed in
  let ws = 3 + Rng.int rng 6 in
  let bridged = if Rng.bool rng 0.3 then 1 + Rng.int rng (ws / 2) else 0 in
  let njobs = 1 + Rng.int rng 4 in
  let jobs =
    List.init njobs (fun _ ->
        let j_at = Time.of_us (Rng.int rng 5_000_000) in
        let j_ws = Rng.int rng ws in
        let j_prog = programs.(Rng.int rng (Array.length programs)) in
        let j_target =
          match Rng.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 | 5 -> Target_any
          | 6 | 7 -> Target_host (Rng.int rng ws)
          | _ -> Target_local
        in
        let j_migrate_after =
          if Rng.bool rng 0.5 then
            Some (Time.of_us (1_000_000 + Rng.int rng 4_000_000))
          else None
        in
        let j_strategy =
          if Rng.bool rng 0.25 then Protocol.Freeze_and_copy
          else Protocol.Precopy
        in
        { j_at; j_ws; j_prog; j_target; j_migrate_after; j_strategy })
  in
  let sc_faults =
    List.concat (List.init (Rng.int rng 3) (fun _ -> gen_fault_event rng ~ws ~bridged))
  in
  {
    sc_seed = seed;
    sc_label = None;
    sc_workstations = ws;
    sc_bridged = bridged;
    sc_jobs = jobs;
    sc_faults;
    sc_horizon = Time.of_sec (18. +. (4. *. float_of_int njobs));
    sc_expect_residual = false;
  }

(* Mutation mode for `vsim fuzz --strategy`: take a generated scenario
   and force every job onto one copy discipline. Applied after the
   normal draws, so seeds keep producing byte-identical scenarios when
   no strategy is forced. Migrations are made unconditional (jobs
   without one draw a fixed mid-run instant) and fault plans dropped, so
   every seed actually exercises the strategy under test rather than
   hiding behind a crashed destination. [sc_expect_residual] is NOT set:
   forcing copy-on-reference must keep tripping the residual monitor —
   that is the built-in mutation test. *)
let force_strategy strategy sc =
  {
    sc with
    sc_jobs =
      List.map
        (fun j ->
          {
            j with
            j_strategy = strategy;
            j_migrate_after =
              (match j.j_migrate_after with
              | Some _ as d -> d
              | None -> Some (Time.of_us 1_500_000));
          })
        sc.sc_jobs;
    sc_faults = [];
  }

let describe sc =
  let job_word (j : job) =
    Printf.sprintf "%s@%s%s" j.j_prog
      (match j.j_target with
      | Target_any -> "*"
      | Target_host h -> Printf.sprintf "ws%d" h
      | Target_local -> "local")
      (match j.j_migrate_after with
      | Some d -> Printf.sprintf "+mig@%s" (Time.to_string d)
      | None -> "")
  in
  Printf.sprintf
    "%sseed %d: %d ws (%d bridged), jobs [%s], faults [%s], horizon %s"
    (match sc.sc_label with Some l -> l ^ " " | None -> "")
    sc.sc_seed sc.sc_workstations sc.sc_bridged
    (String.concat "; " (List.map job_word sc.sc_jobs))
    (Format.asprintf "%a" Faults.pp_plan sc.sc_faults)
    (Time.to_string sc.sc_horizon)

let replay_hint ?(forwarding = false) ?strategy ?content_cache sc =
  Replay.format
    (Replay.make ?scenario:sc.sc_label ~seed:sc.sc_seed ~forwarding ?strategy
       ?content_cache ())

type outcome = {
  o_scenario : t;
  o_violations : Monitors.violation list;
  o_violations_dropped : int;
  o_residual_seen : int;
  o_events : int;
  o_completed : int;
  o_failed : int;
  o_coverage : Coverage.t;
}

(* Library scenarios can name vm-flush before a cluster exists; the
   page-server pid is only known at run time. Generators use this
   placeholder and [resolve_strategy] patches it per cluster. *)
let vm_flush_placeholder = Protocol.Vm_flush { page_server = Ids.pid (-1) 0 }

let resolve_strategy cl = function
  | Protocol.Vm_flush { page_server } when page_server.Ids.lh < 0 ->
      Protocol.Vm_flush
        { page_server = File_server.pid (Cluster.file_server cl) }
  | s -> s

let strategy_of_token = function
  | "precopy" -> Protocol.Precopy
  | "freeze" -> Protocol.Freeze_and_copy
  | "cor" -> Protocol.Copy_on_reference
  | "vmflush" -> vm_flush_placeholder
  | tok -> invalid_arg ("Scenario.strategy_of_token: " ^ tok)

let launch cl (j : job) ~completed ~failed =
  let eng = Cluster.engine cl in
  ignore
    (Cluster.shell cl ~ws:j.j_ws ~name:"fuzz-shell" (fun ctx ->
         let target =
           match j.j_target with
           | Target_any -> Remote_exec.Any
           | Target_local -> Remote_exec.Local
           | Target_host h -> Remote_exec.Named (Printf.sprintf "ws%d" h)
         in
         match Remote_exec.exec ctx ~prog:j.j_prog ~target with
         | Error _ -> incr failed
         | Ok h -> (
             (match j.j_migrate_after with
             | Some d ->
                 Proc.sleep eng d;
                 (* Address the manager by its stable pid: it stays put
                    when the program moves (see Experiment). *)
                 ignore
                   (Remote_exec.migrate_program
                      ~strategy:(resolve_strategy cl j.j_strategy)
                      ~pm:h.Remote_exec.h_pm ctx h)
             | None -> ());
             match Remote_exec.wait ctx h with
             | Ok _ -> incr completed
             | Error _ -> incr failed)))

(* Scenarios that deliberately run copy-on-reference (migrate-storm)
   expect the residual monitor to object — that is the point of the
   monitor. Their residual violations are split out into
   [o_residual_seen] so they gate as a coverage feature instead of a
   failure; everything else stays a violation. *)
let split_residual ~expect violations =
  if not expect then (0, violations)
  else
    let res, rest =
      List.partition
        (fun v -> v.Monitors.vi_monitor = "residual")
        violations
    in
    (List.length res, rest)

(* The monitored cluster both shapes run in: the default configuration
   with migration budgets plus the run's rebind mode, content cache and
   (serve mode) placement, tracing on, the failure detector enabled, and
   the monitor bundle and coverage census attached. *)
let monitored_cluster ~rebind ~content_cache ?placement ~seed ~workstations
    ~bridged faults =
  let cfg =
    let base = Config.with_default_budgets Config.default in
    {
      base with
      Config.os =
        {
          base.Config.os with
          Os_params.rebind;
          content_cache_bytes = content_cache;
        };
      placement = Option.value placement ~default:base.Config.placement;
    }
  in
  let cl =
    Cluster.create ~seed ~workstations ~bridged ~cfg ~trace:true
      ?faults:(match faults with [] -> None | plan -> Some plan)
      ()
  in
  ignore (Cluster.enable_health cl);
  let mon = Monitors.attach (Cluster.tracer cl) in
  (cl, mon, Coverage.attach cl mon)

let run_cluster ?(rebind = Os_params.Broadcast_query) ?(content_cache = 0) sc
    =
  let cl, mon, cov =
    monitored_cluster ~rebind ~content_cache ~seed:sc.sc_seed
      ~workstations:sc.sc_workstations ~bridged:sc.sc_bridged sc.sc_faults
  in
  let eng = Cluster.engine cl in
  let completed = ref 0 and failed = ref 0 in
  List.iter
    (fun j ->
      Engine.post eng ~at:j.j_at (fun () -> launch cl j ~completed ~failed))
    sc.sc_jobs;
  Cluster.run cl ~until:sc.sc_horizon;
  let residual_seen, violations =
    split_residual ~expect:sc.sc_expect_residual (Monitors.violations mon)
  in
  ( {
      o_scenario = sc;
      o_violations = violations;
      o_violations_dropped = Monitors.dropped mon;
      o_residual_seen = residual_seen;
      o_events = Tracer.seq (Cluster.tracer cl);
      o_completed = !completed;
      o_failed = !failed;
      o_coverage =
        Coverage.of_run cov ~scenario:sc.sc_label ~plan:sc.sc_faults
          ~placement:None;
    },
    cl )

let run ?rebind ?content_cache sc = fst (run_cluster ?rebind ?content_cache sc)

(* {1 Serve mode: sustained-load scenarios} *)

let serve_programs =
  [ "cc68"; "make"; "preprocessor"; "assembler"; "parser"; "optimizer" ]

type serve = {
  sv_seed : int;
  sv_label : string option;
  sv_workstations : int;
  sv_bridged : int;
  sv_rate : float;
  sv_modulation : Arrivals.modulation;
  sv_duration : Time.span;
  sv_progs : string list;
  sv_max_in_flight : int;
  sv_queue_limit : int;
  sv_balancer_interval : Time.span;
  sv_strategy : Protocol.strategy option;
  sv_slo_shed : float option;
  sv_placement : Config.placement;
  sv_faults : Faults.plan;
}

let placement_token = function
  | Config.Flat_multicast -> "flat"
  | Config.Pod_sharded { pod_size } -> Printf.sprintf "pods/%d" pod_size
  | Config.Load_predictive { pod_size; _ } ->
      Printf.sprintf "predictive/%d" pod_size

let serve_of_seed seed =
  let rng = Rng.create seed in
  let ws = 4 + Rng.int rng 9 in
  let bridged = if Rng.bool rng 0.25 then 1 + Rng.int rng (ws / 2) else 0 in
  let rate = 0.5 +. Rng.float rng 2.5 in
  let duration = Time.of_us (15_000_000 + Rng.int rng 15_000_000) in
  let faults =
    List.concat
      (List.init (Rng.int rng 3) (fun _ -> gen_fault_event rng ~ws ~bridged))
  in
  (* Half flat, a quarter each pod-sharded and predictive, with pod
     sizes small enough that a 4-12 ws pool splits into several pods. *)
  let placement =
    match Rng.int rng 4 with
    | 0 -> Config.Pod_sharded { pod_size = 2 + Rng.int rng 3 }
    | 1 ->
        Config.Load_predictive
          { pod_size = 2 + Rng.int rng 3; alpha = 0.2 +. Rng.float rng 0.4 }
    | _ -> Config.Flat_multicast
  in
  {
    sv_seed = seed;
    sv_label = None;
    sv_workstations = ws;
    sv_bridged = bridged;
    sv_rate = rate;
    sv_modulation = Arrivals.Constant;
    sv_duration = duration;
    (* tex is excluded for the same horizon reasons as in [programs]. *)
    sv_progs = serve_programs;
    sv_max_in_flight = 2 + Rng.int rng 7;
    sv_queue_limit = 2 + Rng.int rng 7;
    sv_balancer_interval = Time.of_us (2_000_000 + Rng.int rng 3_000_000);
    sv_strategy = None;
    (* Half the scenarios run with brownout shedding armed, so the
       overload-graceful path is fuzzed as hard as the happy path. *)
    sv_slo_shed =
      (if Rng.bool rng 0.5 then Some (1.5 +. Rng.float rng 3.) else None);
    sv_placement = placement;
    sv_faults = faults;
  }

let describe_serve sv =
  Printf.sprintf
    "%sserve seed %d: %d ws (%d bridged), %.2f req/s (%s) for %s, cap %d + \
     queue %d, shed %s, placement %s, faults [%s]"
    (match sv.sv_label with Some l -> l ^ " " | None -> "")
    sv.sv_seed sv.sv_workstations sv.sv_bridged sv.sv_rate
    (Arrivals.modulation_to_string sv.sv_modulation)
    (Time.to_string sv.sv_duration)
    sv.sv_max_in_flight sv.sv_queue_limit
    (match sv.sv_slo_shed with
    | Some m -> Printf.sprintf "%.2fxSLO" m
    | None -> "off")
    (placement_token sv.sv_placement)
    (Format.asprintf "%a" Faults.pp_plan sv.sv_faults)

let replay_serve_hint ?(forwarding = false) ?strategy ?placement
    ?content_cache sv =
  Replay.format
    (Replay.make ?scenario:sv.sv_label ~seed:sv.sv_seed ~serve:true
       ~forwarding ?strategy ?placement ?content_cache ())

type serve_outcome = {
  so_scenario : serve;
  so_violations : Monitors.violation list;
  so_violations_dropped : int;
  so_events : int;
  so_submitted : int;
  so_completed : int;
  so_shed : int;
  so_stuck : int;
  so_coverage : Coverage.t;
}

let run_serve_cluster ?(rebind = Os_params.Broadcast_query)
    ?(content_cache = 0) ?strategy ?placement sv =
  let placement = Option.value placement ~default:sv.sv_placement in
  let cl, mon, cov =
    monitored_cluster ~rebind ~content_cache ~placement ~seed:sv.sv_seed
      ~workstations:sv.sv_workstations ~bridged:sv.sv_bridged sv.sv_faults
  in
  let strategy =
    Option.map (resolve_strategy cl)
      (match strategy with Some _ -> strategy | None -> sv.sv_strategy)
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
      drain_grace = Time.of_sec 30.;
      (* Pod-based runs arm the autoscaler so the fuzzer exercises the
         grow/shrink machinery alongside the sharded selection path. *)
      autoscale =
        (match placement with
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
  let session = Serve.Session.create ~params cl in
  Serve.Session.drain session;
  let m = Serve.Session.metrics session in
  ( {
      so_scenario = sv;
      so_violations = Monitors.violations mon;
      so_violations_dropped = Monitors.dropped mon;
      so_events = Tracer.seq (Cluster.tracer cl);
      so_submitted = m.Serve.Session.m_submitted;
      so_completed = m.Serve.Session.m_completed;
      so_shed = m.Serve.Session.m_shed;
      so_stuck = m.Serve.Session.m_stuck;
      so_coverage =
        Coverage.of_run cov ~scenario:sv.sv_label ~plan:sv.sv_faults
          ~placement:(Some (Cluster.placement cl));
    },
    cl )

let run_serve ?rebind ?content_cache ?strategy ?placement sv =
  fst (run_serve_cluster ?rebind ?content_cache ?strategy ?placement sv)

(* {1 The scenario library}

   Named, seeded, production-shaped scenario families. Each entry is a
   pair of generators — a plain (job-batch) shape and a serve
   (sustained-load) shape — drawn from a salted RNG so [--scenario
   NAME --seed K] replays exactly, plus the coverage contract the
   harness gates on: which features must materialize in the runs and
   which strategies the family promises to start. *)

module Library = struct
  (* One shape of an entry: its generator and its coverage promises. A
     feature holds over the run's coverage and its outcome; [heal] and
     [storm] read only the coverage, so both shapes share them. *)
  type ('sc, 'o) spec = {
    gen : Rng.t -> 'sc;
    strategies : string list;
    features : (string * (Coverage.t -> 'o -> bool)) list;
  }

  type entry = {
    e_name : string;
    e_salt : int;
    e_stresses : string;
    e_plain : (t, outcome) spec;
    e_serve : (serve, serve_outcome) spec;
  }

  let spec ?(strategies = []) ?(features = []) gen =
    { gen; strategies; features }

  let name e = e.e_name
  let stresses e = e.e_stresses

  let feature_names spec = List.map fst spec.features

  let features e ~serve:sv =
    if sv then feature_names e.e_serve else feature_names e.e_plain

  let strategies e ~serve:sv =
    if sv then e.e_serve.strategies else e.e_plain.strategies

  let rng_for e seed = Rng.create ((e.e_salt * 1_000_003) + seed)

  let plain e ~seed =
    { (e.e_plain.gen (rng_for e seed)) with sc_seed = seed;
                                            sc_label = Some e.e_name }

  let serve e ~seed =
    { (e.e_serve.gen (rng_for e seed)) with sv_seed = seed;
                                            sv_label = Some e.e_name }

  let verdicts spec cov o =
    List.map (fun (f, holds) -> (f, holds cov o)) spec.features

  let check_plain e o = verdicts e.e_plain o.o_coverage o
  let check_serve e o = verdicts e.e_serve o.so_coverage o

  (* Generator helpers. *)

  let sec = Time.of_sec
  let usec = Time.of_us
  let pick rng arr = arr.(Rng.int rng (Array.length arr))

  let mk_job ?(target = Target_any) ?migrate_after
      ?(strategy = Protocol.Precopy) ~at ~ws ~prog () =
    {
      j_at = at;
      j_ws = ws;
      j_prog = prog;
      j_target = target;
      j_migrate_after = migrate_after;
      j_strategy = strategy;
    }

  let mk_plain ?(expect_residual = false) ?(bridged = 0) ~ws ~jobs ~faults
      ~horizon () =
    {
      sc_seed = 0;
      sc_label = None;
      sc_workstations = ws;
      sc_bridged = bridged;
      sc_jobs = jobs;
      sc_faults = faults;
      sc_horizon = horizon;
      sc_expect_residual = expect_residual;
    }

  let mk_serve ?(bridged = 0) ?(modulation = Arrivals.Constant)
      ?(progs = serve_programs) ?strategy ?slo_shed
      ?(placement = Config.Flat_multicast) ~ws ~rate ~duration ~max_in_flight
      ~queue_limit ~balancer ~faults () =
    {
      sv_seed = 0;
      sv_label = None;
      sv_workstations = ws;
      sv_bridged = bridged;
      sv_rate = rate;
      sv_modulation = modulation;
      sv_duration = duration;
      sv_progs = progs;
      sv_max_in_flight = max_in_flight;
      sv_queue_limit = queue_limit;
      sv_balancer_interval = balancer;
      sv_strategy = strategy;
      sv_slo_shed = slo_shed;
      sv_placement = placement;
      sv_faults = faults;
    }

  (* The satellite [pods] knob: split [ws] workstations into [npods]
     scheduling domains (pods of at least two hosts each), half the
     time with the predictive tier selector on top. *)
  let pods_placement rng ~ws ~npods =
    let pod_size = max 2 (ws / max 1 npods) in
    if Rng.bool rng 0.5 then Config.Pod_sharded { pod_size }
    else Config.Load_predictive { pod_size; alpha = 0.2 +. Rng.float rng 0.3 }

  (* A correlated rack: [n] hosts ws1..wsn (ws0 stays up so submitting
     shells and the file-server observer survive), crashed together and
     rebooted on a stagger so the cluster ends the scenario whole —
     plus one straggler host ws(n+1) dying alone a little later, so the
     family exercises the lone-crash kind alongside the rack kind. *)
  let rack_faults ~n ~crash_at =
    let hosts = List.init n (fun i -> Printf.sprintf "ws%d" (i + 1)) in
    let straggler = Printf.sprintf "ws%d" (n + 1) in
    (Faults.Crash_rack { hosts; at = crash_at }
    :: List.mapi
         (fun i h ->
           Faults.Reboot_host
             {
               host = h;
               at = Time.add crash_at (sec (2. +. (1.5 *. float_of_int i)));
             })
         hosts)
    @ [
        Faults.Crash_host { host = straggler; at = Time.add crash_at (sec 1.) };
        Faults.Reboot_host
          { host = straggler; at = Time.add crash_at (sec 5.) };
      ]

  (* compile-farm: the paper's own workload shape — make/cc68/TeX
     pipelines with fitted dirty models, spread over the pool, with the
     three commit-clean disciplines rotating across the migrations. *)

  let compile_pipeline =
    [| "make"; "preprocessor"; "cc68"; "assembler"; "linking loader" |]

  let compile_farm_plain rng =
    let ws = 6 + Rng.int rng 3 in
    let rotation =
      [| Protocol.Precopy; Protocol.Freeze_and_copy; vm_flush_placeholder |]
    in
    let npipe = 2 + Rng.int rng 2 in
    let jobs =
      List.concat
        (List.init npipe (fun p ->
             let start = usec (Rng.int rng 4_000_000) in
             let src = Rng.int rng ws in
             List.mapi
               (fun k prog ->
                 let at =
                   Time.add start
                     (usec (k * (800_000 + Rng.int rng 600_000)))
                 in
                 let strategy = rotation.((p + k) mod 3) in
                 let migrate =
                   (p + k) mod 2 = 0
                   ||
                   match strategy with
                   | Protocol.Vm_flush _ -> true
                   | _ -> false
                 in
                 let migrate_after =
                   if migrate then
                     Some (usec (1_000_000 + Rng.int rng 2_000_000))
                   else None
                 in
                 mk_job ~at ~ws:src ~prog ~strategy ?migrate_after ())
               (Array.to_list compile_pipeline)))
    in
    let jobs =
      if Rng.bool rng 0.4 then
        (* One TeX run: a big image with a heavy fitted dirty model, so
           pre-copy has real pages to chase. It will not finish inside
           the horizon; its migration is the point. *)
        mk_job ~at:(usec 500_000) ~ws:0 ~prog:"tex" ~migrate_after:(sec 2.)
          ()
        :: jobs
      else jobs
    in
    let faults =
      if Rng.bool rng 0.5 then
        let start = sec (3. +. Rng.float rng 3.) in
        [
          Faults.Slow_host
            {
              host = Printf.sprintf "ws%d" (Rng.int rng ws);
              factor = 2. +. Rng.float rng 2.;
              start;
              stop = Time.add start (sec 4.);
            };
        ]
      else []
    in
    mk_plain ~ws ~jobs ~faults ~horizon:(sec 30.) ()

  let compile_farm_serve rng =
    mk_serve
      ~ws:(6 + Rng.int rng 4)
      ~rate:(1. +. Rng.float rng 1.)
      ~duration:(sec (20. +. Rng.float rng 8.))
      ~max_in_flight:(4 + Rng.int rng 4)
      ~queue_limit:(4 + Rng.int rng 4)
      ~balancer:(usec (2_000_000 + Rng.int rng 2_000_000))
      ~faults:[] ()

  (* diurnal: arrival rate follows a compressed working day. *)

  let diurnal_modulation rng =
    Arrivals.Sinusoid
      {
        period = sec (10. +. Rng.float rng 8.);
        depth = 0.7 +. Rng.float rng 0.25;
      }

  let diurnal_plain rng =
    let ws = 5 + Rng.int rng 3 in
    let modulation = diurnal_modulation rng in
    let rate = 0.5 +. Rng.float rng 0.4 in
    let times =
      Arrivals.modulated_times rng ~rate_per_sec:rate ~modulation
        ~until:(sec 18.)
    in
    let times = List.filteri (fun i _ -> i < 12) times in
    let jobs =
      List.mapi
        (fun i at ->
          let strategy =
            if i mod 2 = 0 then Protocol.Precopy
            else Protocol.Freeze_and_copy
          in
          let migrate_after =
            if i mod 3 = 0 then
              Some (usec (1_000_000 + Rng.int rng 2_000_000))
            else None
          in
          mk_job ~at ~ws:(i mod ws) ~prog:(pick rng programs) ~strategy
            ?migrate_after ())
        times
    in
    let faults =
      if Rng.bool rng 0.4 then
        let start = sec (4. +. Rng.float rng 4.) in
        [
          Faults.Slow_host
            {
              host = Printf.sprintf "ws%d" (Rng.int rng ws);
              factor = 2. +. Rng.float rng 3.;
              start;
              stop = Time.add start (sec 3.);
            };
        ]
      else []
    in
    mk_plain ~ws ~jobs ~faults ~horizon:(sec 28.) ()

  let diurnal_serve rng =
    let ws = 6 + Rng.int rng 4 in
    mk_serve
      ~modulation:(diurnal_modulation rng)
      ~placement:(pods_placement rng ~ws ~npods:(2 + Rng.int rng 2))
      ~ws
      ~rate:(0.8 +. Rng.float rng 0.8)
      ~duration:(sec (25. +. Rng.float rng 10.))
      ~max_in_flight:(3 + Rng.int rng 3)
      ~queue_limit:(3 + Rng.int rng 3)
      ~balancer:(usec (2_000_000 + Rng.int rng 2_000_000))
      ?slo_shed:(if Rng.bool rng 0.5 then Some (1.5 +. Rng.float rng 2.) else None)
      ~faults:[] ()

  (* flash-crowd: a ×10 arrival spike with ramp and decay. *)

  let flash_crowd_plain rng =
    let ws = 5 + Rng.int rng 3 in
    let spike_at = 6. +. Rng.float rng 3. in
    let trickle =
      List.init 3 (fun i ->
          mk_job
            ~at:(sec ((float_of_int i *. 1.8) +. 0.3))
            ~ws:(Rng.int rng ws) ~prog:(pick rng programs) ())
    in
    let nburst = 6 + Rng.int rng 4 in
    let burst =
      List.init nburst (fun i ->
          let strategy =
            if i mod 2 = 0 then Protocol.Precopy
            else Protocol.Freeze_and_copy
          in
          let migrate_after =
            if i mod 3 = 0 then Some (usec (800_000 + Rng.int rng 1_500_000))
            else None
          in
          mk_job
            ~at:(sec (spike_at +. Rng.float rng 2.))
            ~ws:(i mod ws) ~prog:(pick rng programs) ~strategy ?migrate_after
            ())
    in
    mk_plain ~ws ~jobs:(trickle @ burst) ~faults:[] ~horizon:(sec 26.) ()

  let flash_crowd_serve rng =
    let at = 10. +. Rng.float rng 3. in
    let ws = 6 + Rng.int rng 4 in
    mk_serve
      ~modulation:
        (Arrivals.Spike
           {
             at = sec at;
             ramp = sec 2.;
             hold = sec (2. +. Rng.float rng 1.);
             decay = sec 3.;
             mult = 10.;
           })
      ~placement:(pods_placement rng ~ws ~npods:(2 + Rng.int rng 3))
      ~ws
      ~rate:(0.8 +. Rng.float rng 0.6)
      ~duration:(sec (26. +. Rng.float rng 6.))
      ~max_in_flight:(4 + Rng.int rng 4)
      ~queue_limit:(4 + Rng.int rng 4)
      ~balancer:(usec (2_000_000 + Rng.int rng 1_500_000))
      ?slo_shed:(if Rng.bool rng 0.5 then Some (1.5 +. Rng.float rng 1.) else None)
      ~faults:[] ()

  (* A burst: some 3 s window holds at least 5 jobs and at least half of
     them. Data-driven — a generator change that flattens the spike
     fails the feature gate. *)
  let plain_spike _ o =
    let ats =
      List.map (fun j -> Time.to_sec j.j_at) o.o_scenario.sc_jobs
    in
    let n = List.length ats in
    List.exists
      (fun t0 ->
        let c =
          List.length
            (List.filter (fun u -> Float.abs (u -. t0) <= 1.5) ats)
        in
        c >= 5 && 2 * c >= n)
      ats

  (* Submissions well above the flat-rate expectation betray the spike:
     base rate*duration, gate at 1.5x. *)
  let serve_spike _ o =
    let sv = o.so_scenario in
    float_of_int o.so_submitted
    >= 1.5 *. sv.sv_rate *. Time.to_sec sv.sv_duration

  (* rack-failure: correlated crashrack + staggered reboots. *)

  let rack_failure_plain rng =
    let ws = 6 + Rng.int rng 3 in
    let n = 2 + Rng.int rng 2 in
    let faults = rack_faults ~n ~crash_at:(sec (5. +. Rng.float rng 2.)) in
    let njobs = 5 + Rng.int rng 3 in
    let jobs =
      List.init njobs (fun i ->
          let target =
            (* Half the jobs are pinned onto rack hosts, so the crash
               lands on live guests and their reexec/migration paths. *)
            if i mod 2 = 0 then Target_host (1 + (i / 2 mod n))
            else Target_any
          in
          let migrate_after =
            if i mod 3 = 1 then
              Some (usec (1_500_000 + Rng.int rng 2_500_000))
            else None
          in
          mk_job
            ~at:(usec (Rng.int rng 4_000_000))
            ~ws:(if i mod 2 = 0 then 0 else ws - 1)
            ~prog:(pick rng programs) ~target ?migrate_after ())
    in
    mk_plain ~ws ~jobs ~faults ~horizon:(sec 24.) ()

  let rack_failure_serve rng =
    let ws = 8 + Rng.int rng 3 in
    mk_serve ~ws
      ~rate:(1.2 +. Rng.float rng 1.)
      ~duration:(sec (22. +. Rng.float rng 6.))
      ~max_in_flight:(5 + Rng.int rng 4)
      ~queue_limit:(5 + Rng.int rng 4)
      ~balancer:(usec (2_000_000 + Rng.int rng 1_000_000))
      ~faults:(rack_faults ~n:3 ~crash_at:(sec (8. +. Rng.float rng 2.)))
      ()

  let rack_heal (c : Coverage.t) _ =
    Coverage.count c.fired "crashrack" >= 1
    && Coverage.count c.fired "reboot" >= 1

  (* partition-heal: a bridged cluster splits mid-run and heals. *)

  let partition_window rng =
    let start = sec (4. +. Rng.float rng 2.) in
    let stop = Time.add start (sec (4. +. Rng.float rng 3.)) in
    [ Faults.Partition_bridge { start; stop } ]

  let partition_heal_plain rng =
    let ws = 6 + Rng.int rng 3 in
    let bridged = 2 + Rng.int rng 2 in
    let faults = partition_window rng in
    let njobs = 5 + Rng.int rng 3 in
    let main = ws - bridged in
    let jobs =
      List.init njobs (fun i ->
          (* Alternate submission sides, targeting across the bridge, so
             the partition cuts live exec/migration conversations. *)
          let src, target =
            if i mod 2 = 0 then (i / 2 mod main, Target_host (main + (i mod bridged)))
            else (main + (i mod bridged), Target_host (i / 2 mod main))
          in
          let migrate_after =
            if i mod 3 = 0 then
              Some (usec (3_000_000 + Rng.int rng 3_000_000))
            else None
          in
          mk_job
            ~at:(usec (500_000 + Rng.int rng 3_000_000))
            ~ws:src ~prog:(pick rng programs) ~target ?migrate_after ())
    in
    mk_plain ~ws ~bridged ~jobs ~faults ~horizon:(sec 26.) ()

  let partition_heal_serve rng =
    let ws = 7 + Rng.int rng 4 in
    mk_serve ~ws
      ~bridged:(2 + Rng.int rng 2)
      ~rate:(1. +. Rng.float rng 1.)
      ~duration:(sec (22. +. Rng.float rng 8.))
      ~max_in_flight:(4 + Rng.int rng 4)
      ~queue_limit:(4 + Rng.int rng 4)
      ~balancer:(usec (2_000_000 + Rng.int rng 1_500_000))
      ~faults:(partition_window rng) ()

  (* Both edges of the window fired: the split happened AND healed. *)
  let partition_heal (c : Coverage.t) _ =
    Coverage.count c.fired "partition" >= 2

  (* brownout: slow-network windows under sustained serve load, tight
     admission caps, shedding armed. *)

  let brownout_faults rng ~ws =
    let slow_start = sec (4. +. Rng.float rng 2.) in
    let loss_start = sec (6. +. Rng.float rng 2.) in
    let flaky_start = sec (5. +. Rng.float rng 2.) in
    [
      (* Flaky churn on one host alongside the slow/lossy windows: the
         brownout is a degraded network, not a clean partition. *)
      Faults.Flaky_host
        {
          host = Printf.sprintf "ws%d" (1 + Rng.int rng (ws - 1));
          start = flaky_start;
          stop = Time.add flaky_start (sec (4. +. Rng.float rng 2.));
        };
      Faults.Slow_host
        {
          host = Printf.sprintf "ws%d" (1 + Rng.int rng (ws - 1));
          factor = 3. +. Rng.float rng 3.;
          start = slow_start;
          stop = Time.add slow_start (sec (8. +. Rng.float rng 4.));
        };
      Faults.Loss_window
        {
          p = 0.02 +. Rng.float rng 0.06;
          start = loss_start;
          stop = Time.add loss_start (sec (4. +. Rng.float rng 2.));
        };
    ]

  let brownout_plain rng =
    let ws = 4 + Rng.int rng 3 in
    let njobs = 4 + Rng.int rng 3 in
    let jobs =
      List.init njobs (fun i ->
          let migrate_after =
            if i mod 2 = 0 then
              Some (usec (1_000_000 + Rng.int rng 3_000_000))
            else None
          in
          mk_job
            ~at:(usec (Rng.int rng 5_000_000))
            ~ws:(i mod ws) ~prog:(pick rng programs) ?migrate_after
            ~strategy:
              (if i mod 2 = 0 then Protocol.Precopy
               else Protocol.Freeze_and_copy)
            ())
    in
    mk_plain ~ws ~jobs ~faults:(brownout_faults rng ~ws)
      ~horizon:(sec 24.) ()

  let brownout_serve rng =
    let ws = 4 + Rng.int rng 3 in
    mk_serve ~ws
      ~rate:(2.5 +. Rng.float rng 1.5)
      ~duration:(sec (20. +. Rng.float rng 8.))
      ~max_in_flight:(2 + Rng.int rng 2)
      ~queue_limit:(2 + Rng.int rng 2)
      ~balancer:(usec (2_000_000 + Rng.int rng 1_000_000))
      ~slo_shed:(1.2 +. Rng.float rng 0.8)
      ~faults:(brownout_faults rng ~ws) ()

  let brownout_shed _ o = o.so_shed >= 1

  (* migrate-storm: adversarial churn — every job migrates, all four
     disciplines rotate (so copy-on-reference's planted residual
     dependency is exercised and gated as a feature, not a failure), and
     in serve mode the balancer runs on a hair trigger. *)

  let migrate_storm_plain rng =
    let ws = 4 + Rng.int rng 3 in
    let njobs = 5 + Rng.int rng 3 in
    let rotation =
      [|
        Protocol.Precopy;
        Protocol.Freeze_and_copy;
        vm_flush_placeholder;
        Protocol.Copy_on_reference;
      |]
    in
    let jobs =
      List.init njobs (fun i ->
          mk_job
            ~at:(usec ((200_000 * i) + Rng.int rng 300_000))
            ~ws:(i mod ws) ~prog:(pick rng programs)
            ~strategy:rotation.(i mod 4)
            ~migrate_after:(usec (500_000 + Rng.int rng 1_500_000))
            ())
    in
    mk_plain ~expect_residual:true ~ws ~jobs ~faults:[] ~horizon:(sec 22.)
      ()

  (* At least three migrations started, whatever the shape. *)
  let storm (c : Coverage.t) _ = Coverage.count c.events "migrate/start" >= 3

  (* Copy-on-reference's planted residual dependency was caught. *)
  let residual_caught _ o = o.o_residual_seen >= 1

  let migrate_storm_serve rng =
    mk_serve
      ~ws:(5 + Rng.int rng 3)
      ~rate:(1.2 +. Rng.float rng 0.8)
      ~duration:(sec (18. +. Rng.float rng 6.))
      ~max_in_flight:(5 + Rng.int rng 4)
      ~queue_limit:(5 + Rng.int rng 4)
      ~balancer:(usec (400_000 + Rng.int rng 400_000))
      ~strategy:
        (if Rng.bool rng 0.5 then Protocol.Freeze_and_copy
         else Protocol.Precopy)
      ~faults:[] ()

  let all =
    [
      {
        e_name = "compile-farm";
        e_salt = 1;
        e_stresses =
          "the paper's workload: staged compile pipelines, fitted dirty \
           models, all three commit-clean disciplines";
        e_plain =
          spec compile_farm_plain
            ~strategies:[ "precopy"; "freeze-and-copy"; "vm-flush" ];
        e_serve = spec compile_farm_serve;
      };
      {
        e_name = "diurnal";
        e_salt = 2;
        e_stresses =
          "arrival-rate modulation over a compressed working day: idle \
           troughs then saturated crests";
        e_plain =
          spec diurnal_plain ~strategies:[ "precopy"; "freeze-and-copy" ];
        e_serve = spec diurnal_serve;
      };
      {
        e_name = "flash-crowd";
        e_salt = 3;
        e_stresses =
          "admission control and balancer under a sudden arrival spike \
           with ramp and decay";
        e_plain =
          spec flash_crowd_plain
            ~strategies:[ "precopy"; "freeze-and-copy" ]
            ~features:[ ("spike", plain_spike) ];
        e_serve = spec flash_crowd_serve ~features:[ ("spike", serve_spike) ];
      };
      {
        e_name = "rack-failure";
        e_salt = 4;
        e_stresses =
          "correlated failure: suspicion, re-execution and migration \
           reselection while a rack is dark, recovery as it reboots";
        e_plain =
          spec rack_failure_plain ~strategies:[ "precopy" ]
            ~features:[ ("heal", rack_heal) ];
        e_serve = spec rack_failure_serve ~features:[ ("heal", rack_heal) ];
      };
      {
        e_name = "partition-heal";
        e_salt = 5;
        e_stresses =
          "cross-segment exec and migration conversations cut by a \
           partition, then the heal: rebinding, retransmission backoff";
        e_plain =
          spec partition_heal_plain ~strategies:[ "precopy" ]
            ~features:[ ("heal", partition_heal) ];
        e_serve =
          spec partition_heal_serve ~features:[ ("heal", partition_heal) ];
      };
      {
        e_name = "brownout";
        e_salt = 6;
        e_stresses =
          "sustained overload on a degraded network: queue growth, \
           brownout shedding, un-latching on recovery";
        e_plain =
          spec brownout_plain ~strategies:[ "precopy"; "freeze-and-copy" ];
        e_serve = spec brownout_serve ~features:[ ("brownout", brownout_shed) ];
      };
      {
        e_name = "migrate-storm";
        e_salt = 7;
        e_stresses =
          "adversarial churn: overlapping migrations, copy-on-reference \
           residual dependencies, balancer thrash";
        e_plain =
          spec migrate_storm_plain
            ~strategies:
              [ "precopy"; "freeze-and-copy"; "vm-flush"; "copy-on-reference" ]
            ~features:[ ("storm", storm); ("residual", residual_caught) ];
        e_serve =
          spec migrate_storm_serve
            ~strategies:[ "precopy"; "freeze-and-copy" ]
            ~features:[ ("storm", storm) ];
      };
    ]

  let find name = List.find_opt (fun e -> e.e_name = name) all
  let names = List.map (fun e -> e.e_name) all
end
