(* vsim: command-line driver for the simulated V cluster.

   Subcommands mirror the user-visible facilities of the paper:

     vsim exec PROG [--at HOST | --local]   "prog args @ machine"
     vsim migrate PROG [--strategy S]       migrateprog
     vsim sweep PROG [--seeds ..] [-j N]    replica sweep on OCaml 5 domains
     vsim usage [--minutes M]               the pool-of-processors scenario
     vsim serve [--rate R] [--duration S]   sustained traffic through the
                                            Serve session layer (SLO metrics)
     vsim programs                          the program catalogue
     vsim fuzz [--seeds N] [-j N]           seeded scenario fuzzing under
                                            the invariant monitors
*)

let sec = Time.of_sec

(* {1 Common options} *)

let seed =
  let doc = "Random seed (runs are deterministic per seed)." in
  Cmdliner.Arg.(value & opt int 1985 & info [ "seed" ] ~docv:"N" ~doc)

let workstations =
  let doc = "Number of workstations in the cluster." in
  Cmdliner.Arg.(value & opt int 6 & info [ "workstations"; "w" ] ~docv:"N" ~doc)

let trace =
  let doc = "Print every recorded trace event afterwards." in
  Cmdliner.Arg.(value & flag & info [ "trace" ] ~doc)

let bridged =
  let doc =
    "Put the last $(docv) workstations on a second Ethernet segment behind a \
     store-and-forward bridge."
  in
  Cmdliner.Arg.(value & opt int 0 & info [ "bridged" ] ~docv:"N" ~doc)

let faults_conv =
  Cmdliner.Arg.conv
    ((fun s -> Result.map_error (fun m -> `Msg m) (Faults.parse s)), Faults.pp_plan)

let faults_arg =
  let doc =
    "Fault plan injected into the run: ';'-separated clauses, times in \
     virtual seconds — $(b,crash:HOST@T), $(b,reboot:HOST@T), \
     $(b,loss:P@T1-T2), $(b,partition@T1-T2) (needs $(b,--bridged)), \
     $(b,slow:HOSTxF@T1-T2), $(b,flaky:HOST@T1-T2) (seeded crash/reboot \
     churn), $(b,crashrack:H1+H2+...@T) (correlated multi-host crash). \
     Example: 'loss:0.02@0-30;crashrack:ws2+ws3@4.5;reboot:ws2@9'."
  in
  Cmdliner.Arg.(
    value & opt (some faults_conv) None & info [ "faults" ] ~docv:"PLAN" ~doc)

let prog_arg =
  let doc =
    "Program to run; one of the paper's Table 4-1 programs (see $(b,vsim \
     programs))."
  in
  Cmdliner.Arg.(
    required & pos 0 (some string) None & info [] ~docv:"PROG" ~doc)

let make_cluster ?faults ~seed ~workstations ~bridged ~trace () =
  (* Plan-vs-topology errors (unknown host, partition without a bridge)
     only surface when the plan is compiled onto the cluster — report
     them like any other usage error, not as an uncaught exception. *)
  try Cluster.create ~seed ~workstations ~bridged ~trace ?faults ()
  with Invalid_argument msg ->
    Printf.eprintf "vsim: fault plan: %s\n" msg;
    exit 124

let dump_trace cl =
  Format.printf "@.trace:@.";
  List.iter (Format.printf "%a@." Tracer.pp_record)
    (Tracer.records (Cluster.tracer cl))

let report_faults cl =
  match Cluster.faults cl with
  | None -> ()
  | Some f -> Printf.printf "fault actions fired: %d\n" (Faults.injected f)

(* {1 exec} *)

let exec_cmd seed workstations bridged trace faults prog at local reexec =
  let cl = make_cluster ?faults ~seed ~workstations ~bridged ~trace () in
  let origin = Cluster.workstation cl 0 in
  let target =
    if local then Remote_exec.Local
    else
      match at with
      | Some host -> Remote_exec.Named host
      | None -> Remote_exec.Any
  in
  let on_host_failure = if reexec then `Reexec 3 else `Fail in
  let failed = ref false in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match Remote_exec.exec_and_wait ~on_host_failure ctx ~prog ~target with
         | Error e ->
             Printf.printf "run failed: %s\n" e;
             failed := true
         | Ok (h, wall, cpu) ->
             let t = h.Remote_exec.h_timings in
             Printf.printf "%s ran on %s\n" prog h.Remote_exec.h_host;
             (match t.Remote_exec.t_select with
             | Some s -> Printf.printf "  selection : %s\n" (Time.to_string s)
             | None -> ());
             Printf.printf "  env setup : %s\n"
               (Time.to_string t.Remote_exec.t_setup);
             Printf.printf "  image load: %s\n"
               (Time.to_string t.Remote_exec.t_load);
             Printf.printf "completed: wall %s, cpu %s\n" (Time.to_string wall)
               (Time.to_string cpu)));
  Cluster.run cl ~until:(sec 300.);
  Printf.printf "\n%s's display:\n" (Kernel.host_name origin.Cluster.ws_kernel);
  List.iter
    (fun l -> Printf.printf "  | %s\n" l)
    (Display_server.output origin.Cluster.ws_display);
  report_faults cl;
  if trace then dump_trace cl;
  if !failed then 1 else 0

(* {1 migrate} *)

(* The one token table: [Replay.strategy_tokens] through
   [Scenario.strategy_of_token]. *)
let strategy_conv =
  Cmdliner.Arg.enum (List.map (fun t -> (t, t)) Replay.strategy_tokens)

let resolve_token cl tok =
  Scenario.resolve_strategy cl (Scenario.strategy_of_token tok)

let migrate_cmd seed workstations bridged trace faults prog strategy run_for =
  let cl = make_cluster ?faults ~seed ~workstations ~bridged ~trace () in
  let strategy = resolve_token cl strategy in
  let code = ref 0 in
  (match
     Experiment.migrate_program cl ~strategy ~run_for:(Time.of_sec run_for)
       ~prog ()
   with
  | Error e ->
      Printf.printf "migration failed: %s\n" e;
      code := 1
  | Ok o ->
      Format.printf "%a@." Protocol.pp_outcome o;
      List.iteri
        (fun i r ->
          Printf.printf "  round %d: %6d KB in %s\n" (i + 1)
            (r.Protocol.r_bytes / 1024)
            (Time.to_string r.Protocol.r_span))
        o.Protocol.m_rounds;
      Printf.printf "  frozen residue: %d KB; program stopped for %s\n"
        (o.Protocol.m_final_bytes / 1024)
        (Time.to_string (Protocol.freeze_span o)));
  report_faults cl;
  if trace then dump_trace cl;
  !code

(* {1 sweep} *)

(* Fan one scenario over seeds x workstation counts x fault plans, one
   independent cluster replica per cell, run on a domain pool. Results
   print in cell order (seed outer, workstations middle, plan inner), so
   stdout is byte-identical for any -j; only the wall-clock note on
   stderr varies. *)

let sweep_cmd prog seeds_s ws_s fault_specs migrate strategy run_for jobs =
  let parse_int_list what s =
    List.map
      (fun tok ->
        match int_of_string_opt (String.trim tok) with
        | Some n when n > 0 -> n
        | _ ->
            Printf.eprintf "vsim sweep: bad %s %S\n" what tok;
            exit 124)
      (String.split_on_char ',' s)
  in
  let seeds = parse_int_list "seed" seeds_s in
  let wss = parse_int_list "workstation count" ws_s in
  let plans =
    match fault_specs with
    | [] -> [ ("-", None) ]
    | specs ->
        List.map
          (fun spec ->
            match Faults.parse spec with
            | Ok p -> (spec, Some p)
            | Error m ->
                Printf.eprintf "vsim sweep: fault plan %S: %s\n" spec m;
                exit 124)
          specs
  in
  let cells =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun w -> List.map (fun plan -> (seed, w, plan)) plans)
          wss)
      seeds
  in
  let cell (seed, w, (plan_label, faults)) () =
    let header =
      Printf.sprintf "seed=%-5d w=%-3d faults=%-12s" seed w plan_label
    in
    match
      try Ok (Cluster.create ~seed ~workstations:w ?faults ())
      with Invalid_argument m -> Error m
    with
    | Error m -> Printf.sprintf "%s | invalid: %s" header m
    | Ok cl ->
        let finish body =
          let fired =
            match Cluster.faults cl with
            | None -> 0
            | Some f -> Faults.injected f
          in
          Printf.sprintf "%s | %s | %d events, %d fault actions" header body
            (Engine.events_fired (Cluster.engine cl))
            fired
        in
        if migrate then begin
          let strategy = resolve_token cl strategy in
          match
            Experiment.migrate_program cl ~strategy
              ~run_for:(Time.of_sec run_for) ~prog ()
          with
          | Error e -> finish ("migration failed: " ^ e)
          | Ok o ->
              finish
                (Printf.sprintf
                   "migrated %s -> %s: %d rounds, freeze %s, total %s"
                   o.Protocol.m_from o.Protocol.m_dest
                   (List.length o.Protocol.m_rounds)
                   (Time.to_string (Protocol.freeze_span o))
                   (Time.to_string o.Protocol.m_total))
        end
        else
          match Experiment.remote_exec cl ~prog () with
          | Error e -> finish ("exec failed: " ^ e)
          | Ok r ->
              finish
                (Printf.sprintf
                   "ran on %-4s: select %s, setup %s, load %s, total %s"
                   r.Experiment.er_host
                   (match r.Experiment.er_select with
                   | Some s -> Time.to_string s
                   | None -> "-")
                   (Time.to_string r.Experiment.er_setup)
                   (Time.to_string r.Experiment.er_load)
                   (Time.to_string r.Experiment.er_total))
  in
  let t0 = Unix.gettimeofday () in
  let lines = Parrun.run ~jobs (List.map cell cells) in
  List.iter print_endline lines;
  Printf.eprintf "sweep: %d cells on %d domain%s in %.2f s\n%!"
    (List.length cells) jobs
    (if jobs = 1 then "" else "s")
    (Unix.gettimeofday () -. t0);
  0

(* {1 usage} *)

let usage_cmd seed workstations faults minutes rate =
  let cl = make_cluster ?faults ~seed ~workstations ~bridged:0 ~trace:false () in
  let stats =
    Experiment.usage cl
      {
        Experiment.default_usage_params with
        Experiment.u_horizon = sec (60. *. minutes);
        u_job_rate_per_sec = rate;
      }
  in
  Format.printf "%a@." Experiment.pp_usage stats;
  report_faults cl;
  0

(* {1 programs} *)

let programs_cmd () =
  Printf.printf "%-16s %9s %8s %9s  %s\n" "name" "image KB" "cpu s"
    "active KB" "dirty model (fitted to Table 4-1)";
  List.iter
    (fun s ->
      Printf.printf "%-16s %9d %8.0f %9d  %s\n" s.Programs.prog_name
        (File_server.image_file_bytes s.Programs.image / 1024)
        s.Programs.cpu_seconds
        (s.Programs.image.File_server.active_bytes / 1024)
        (Format.asprintf "%a" Dirty_model.pp_params s.Programs.dirty))
    Programs.all;
  0

(* {1 fuzz} *)

(* Deterministic simulation testing through [Fuzz]: each seed expands to
   a full random scenario run under the invariant monitors. A failure
   prints the violated invariant plus the exact command line that
   replays it. *)

let fuzz_cmd count base_seed jobs replay require_coverage =
  if (not replay.Replay.r_serve) && replay.Replay.r_placement <> None then
    Printf.eprintf
      "vsim fuzz: --placement only applies with --serve; ignored\n";
  let t0 = Unix.gettimeofday () in
  match Fuzz.run ~jobs ~count ~base_seed replay with
  | Error msg ->
      Printf.eprintf "vsim fuzz: %s\n" msg;
      exit 124
  | Ok rep ->
      if not rep.Fuzz.verbose then
        Printf.eprintf "%s: %d seeds (base %d) on %d domain%s in %.2f s\n%!"
          (Fuzz.name rep.Fuzz.shape) count base_seed jobs
          (if jobs = 1 then "" else "s")
          (Unix.gettimeofday () -. t0);
      let lines, passed = Fuzz.render ~require_coverage rep in
      List.iter print_endline lines;
      if passed then 0 else 1

(* {1 serve} *)

(* Sustained traffic against a long-running cluster: open-loop Poisson
   arrivals through the Serve session layer, with admission control, the
   balancer migrating continuously, and SLO accounting. Replicas (seed,
   seed+1, ...) are independent clusters fanned over domains; output is
   merged in replica order, so stdout is byte-identical for any -j. *)

let serve_cmd seed workstations bridged faults duration rate replicas jobs
    json_out quick slo_shed health placement_tok pod_size autoscale
    content_cache =
  let duration = if quick then Float.min duration 30. else duration in
  let placement =
    Option.map
      (fun tok ->
        let p =
          match Config.placement_of_string tok with
          | Some p -> p
          | None ->
              Printf.eprintf "vsim serve: unknown placement %S\n" tok;
              exit 124
        in
        match (p, pod_size) with
        | Config.Pod_sharded _, Some n -> Config.Pod_sharded { pod_size = n }
        | Config.Load_predictive { alpha; _ }, Some n ->
            Config.Load_predictive { pod_size = n; alpha }
        | _ -> p)
      placement_tok
  in
  let cfg =
    let base =
      if content_cache = 0 then Config.default
      else
        {
          Config.default with
          Config.os =
            {
              Config.default.Config.os with
              Os_params.content_cache_bytes = content_cache;
            };
        }
    in
    match placement with
    | Some p -> Some { base with Config.placement = p }
    | None -> if content_cache = 0 then None else Some base
  in
  let replica i () =
    match
      try
        Ok
          (Cluster.create ~seed:(seed + i) ~workstations ~bridged ?cfg ?faults
             ())
      with Invalid_argument m -> Error m
    with
    | Error m ->
        Printf.eprintf "vsim serve: fault plan: %s\n" m;
        exit 124
    | Ok cl ->
        if health then ignore (Cluster.enable_health cl);
        let params =
          {
            Serve.Session.default_params with
            Serve.Session.arrivals = Serve.Session.Poisson rate;
            duration = sec duration;
            slo_shed_multiple = slo_shed;
            autoscale =
              (if autoscale then Some Serve.Session.default_autoscale
               else None);
          }
        in
        let s = Serve.Session.create ~params cl in
        Serve.Session.drain s;
        let m = Serve.Session.metrics s in
        let pct su p =
          if Stats.Summary.count su = 0 then 0.
          else Stats.Summary.percentile su p
        in
        let summary =
          Printf.sprintf
            "seed=%-5d ws=%-3d | submitted %d, completed %d (%.2f/s), \
             rejected %d, shed %d, refused %d, failed %d, stuck %d\n\
            \  submit->running p50/p95/p99: %.0f/%.0f/%.0f ms; \
             submit->complete p95: %.0f ms; queue-wait p95: %.0f ms\n\
            \  migrations %d (%.3f/s), freeze p95 %.0f ms; balancer surveys \
             %d, skips %d; brownout %d span%s (%.0f ms)"
            (seed + i) workstations m.Serve.Session.m_submitted
            m.Serve.Session.m_completed m.Serve.Session.m_throughput_per_sec
            m.Serve.Session.m_rejected m.Serve.Session.m_shed
            m.Serve.Session.m_refused m.Serve.Session.m_failed
            m.Serve.Session.m_stuck
            (pct m.Serve.Session.m_submit_to_running_ms 50.)
            (pct m.Serve.Session.m_submit_to_running_ms 95.)
            (pct m.Serve.Session.m_submit_to_running_ms 99.)
            (pct m.Serve.Session.m_submit_to_complete_ms 95.)
            (pct m.Serve.Session.m_queue_wait_ms 95.)
            m.Serve.Session.m_migrations
            (float_of_int m.Serve.Session.m_migrations /. duration)
            (pct m.Serve.Session.m_freeze_ms 95.)
            m.Serve.Session.m_balancer_surveys m.Serve.Session.m_balancer_skips
            m.Serve.Session.m_brownout_spans
            (if m.Serve.Session.m_brownout_spans = 1 then "" else "s")
            m.Serve.Session.m_brownout_ms
        in
        let summary =
          if placement = None && not autoscale then summary
          else
            summary
            ^ Printf.sprintf
                "\n\
                \  placement %s: %d selection(s), %d timeout(s), %d credit \
                 shed(s); cap %d (min %d, max %d), %d scale event(s)"
                m.Serve.Session.m_placement_policy
                m.Serve.Session.m_placement_selections
                m.Serve.Session.m_placement_timeouts
                m.Serve.Session.m_credit_sheds m.Serve.Session.m_cap_final
                m.Serve.Session.m_cap_min m.Serve.Session.m_cap_max
                m.Serve.Session.m_scale_events
        in
        (summary, Serve.Session.metrics_to_json s)
  in
  let t0 = Unix.gettimeofday () in
  let results = Parrun.run ~jobs (List.init replicas replica) in
  Printf.eprintf "serve: %d replica%s on %d domain%s in %.2f s\n%!" replicas
    (if replicas = 1 then "" else "s")
    jobs
    (if jobs = 1 then "" else "s")
    (Unix.gettimeofday () -. t0);
  let doc =
    Json_min.Obj
      [
        ("schema", Json_min.Str "vsim-serve/1");
        ("seed", Json_min.Num (float_of_int seed));
        ("replicas", Json_min.Arr (List.map snd results));
      ]
  in
  (match json_out with
  | Some "-" -> print_string (Json_min.to_string doc)
  | Some file ->
      let oc = open_out file in
      output_string oc (Json_min.to_string doc);
      close_out oc;
      List.iter (fun (s, _) -> print_endline s) results
  | None -> List.iter (fun (s, _) -> print_endline s) results);
  0

(* {1 Command wiring} *)

open Cmdliner

let exec_t =
  let at =
    Arg.(
      value
      & opt (some string) None
      & info [ "at" ] ~docv:"HOST" ~doc:"Run on the named workstation.")
  in
  let local =
    Arg.(value & flag & info [ "local" ] ~doc:"Run on the invoking workstation.")
  in
  let reexec =
    Arg.(
      value & flag
      & info [ "reexec" ]
          ~doc:
            "Re-execute the program elsewhere (up to 3 times) if its host \
             dies under it — at-least-once semantics.")
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Run a program, by default on any idle workstation (@ *).")
    Term.(
      const exec_cmd $ seed $ workstations $ bridged $ trace $ faults_arg
      $ prog_arg $ at $ local $ reexec)

let migrate_t =
  let strategy =
    Arg.(
      value
      & opt strategy_conv "precopy"
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Migration strategy: precopy, freeze, or vmflush.")
  in
  let run_for =
    Arg.(
      value & opt float 3.0
      & info [ "run-for" ] ~docv:"SEC"
          ~doc:"Seconds the program runs before migrateprog.")
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"Run a program remotely, then preempt it with migrateprog.")
    Term.(
      const migrate_cmd $ seed $ workstations $ bridged $ trace $ faults_arg
      $ prog_arg $ strategy $ run_for)

let sweep_t =
  let seeds =
    Arg.(
      value & opt string "1985"
      & info [ "seeds" ] ~docv:"N,N,..."
          ~doc:"Comma-separated list of random seeds, one replica each.")
  in
  let ws_list =
    Arg.(
      value & opt string "6"
      & info [ "workstations"; "w" ] ~docv:"N,N,..."
          ~doc:"Comma-separated list of cluster sizes.")
  in
  let faults =
    Arg.(
      value & opt_all string []
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Fault plan (same syntax as elsewhere); repeatable — each \
             occurrence adds a sweep dimension value.")
  in
  let migrate =
    Arg.(
      value & flag
      & info [ "migrate" ]
          ~doc:"Measure migrateprog per cell instead of remote execution.")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv "precopy"
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Migration strategy for $(b,--migrate) cells.")
  in
  let run_for =
    Arg.(
      value & opt float 3.0
      & info [ "run-for" ] ~docv:"SEC"
          ~doc:"Seconds the program runs before migrateprog.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Parrun.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains to run replicas on (default: the recommended domain \
             count). Output is byte-identical for any value.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Fan a scenario over seeds x cluster sizes x fault plans, one \
          independent replica per cell, in parallel on OCaml 5 domains.")
    Term.(
      const sweep_cmd $ prog_arg $ seeds $ ws_list $ faults $ migrate
      $ strategy $ run_for $ jobs)

let usage_t =
  let minutes =
    Arg.(
      value & opt float 10.
      & info [ "minutes" ] ~docv:"M" ~doc:"Simulated minutes.")
  in
  let rate =
    Arg.(
      value & opt float 0.1
      & info [ "rate" ] ~docv:"R" ~doc:"Job submissions per second.")
  in
  Cmd.v
    (Cmd.info "usage"
       ~doc:"Pool-of-processors scenario: owners, guests, preemptions.")
    Term.(const usage_cmd $ seed $ workstations $ faults_arg $ minutes $ rate)

let serve_t =
  let workstations =
    Arg.(
      value & opt int 64
      & info [ "workstations"; "w" ] ~docv:"N"
          ~doc:"Cluster size (the service tier defaults to 64).")
  in
  let duration =
    Arg.(
      value & opt float 120.
      & info [ "duration" ] ~docv:"SEC"
          ~doc:"Arrival horizon in simulated seconds.")
  in
  let rate =
    Arg.(
      value & opt float 2.
      & info [ "rate" ] ~docv:"R" ~doc:"Poisson arrival rate, requests/second.")
  in
  let replicas =
    Arg.(
      value & opt int 1
      & info [ "replicas" ] ~docv:"K"
          ~doc:
            "Independent seed replicas (seed, seed+1, ...), merged in \
             replica order.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Parrun.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains to fan replicas over. Output is byte-identical for any \
             value.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the metrics report (schema vsim-serve/1) to $(docv); \
             $(b,-) prints it to stdout instead of the text summary.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Cap the horizon at 30 simulated seconds.")
  in
  let slo_shed =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-shed" ] ~docv:"MULT"
          ~doc:
            "Brownout load-shedding: turn new submissions away at the door \
             while the estimated queue wait exceeds $(docv) times the 1 s \
             queue-wait SLO target, instead of queueing without bound. \
             Unset (the default) disables shedding.")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Start the suspicion-based failure detector: the file server \
             probes every workstation over kernel IPC with adaptive \
             timeouts; the balancer, scheduler, and migrations then avoid \
             Dead hosts and deprioritize Suspect ones. The JSON report \
             gains a health section.")
  in
  let placement =
    Arg.(
      value
      & opt (some string) None
      & info [ "placement" ] ~docv:"P"
          ~doc:
            "Placement policy host selection dispatches through: $(b,flat) \
             (the paper's single first-responder multicast, the default), \
             $(b,pods) (pod-sharded scheduler groups with gossiped load \
             summaries routing across pods), or $(b,predictive) (pods plus \
             exponential-smoothing arrival prediction steering away from \
             pods about to saturate).")
  in
  let pod_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "pod-size" ] ~docv:"N"
          ~doc:
            "Workstations per pod for $(b,--placement) $(b,pods) and \
             $(b,predictive) (default 32).")
  in
  let autoscale =
    Arg.(
      value & flag
      & info [ "autoscale" ]
          ~doc:
            "Arm the worker-pool autoscaler: a queuing-theory controller \
             retargets the admission cap each period from smoothed arrival \
             rate and service time (Little's law over the headroom), with a \
             hysteresis band against flapping. The summary and JSON report \
             gain cap/scale-event fields.")
  in
  let content_cache =
    Arg.(
      value & opt int 0
      & info [ "content-cache" ] ~docv:"BYTES"
          ~doc:
            "Per-host content-cache budget in bytes: enables \
             content-addressed state transfer (migration manifests ship \
             only uncached pages) and deduplicated image loading \
             (multicast chunk announcements; a pod relaunching a program \
             pays the 330 ms/100 KB load once). $(b,0) (the default) \
             disables caching.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the cluster as a long-lived service: open-loop arrivals, \
          admission control, continuous rebalancing, SLO accounting.")
    Term.(
      const serve_cmd $ seed $ workstations $ bridged $ faults_arg $ duration
      $ rate $ replicas $ jobs $ json_out $ quick $ slo_shed $ health
      $ placement $ pod_size $ autoscale $ content_cache)

let programs_t =
  Cmd.v
    (Cmd.info "programs" ~doc:"List the paper's programs and their models.")
    Term.(const programs_cmd $ const ())

let fuzz_t =
  let count =
    Arg.(
      value & opt int 64
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to fuzz.")
  in
  let base =
    Arg.(
      value & opt int 1
      & info [ "base-seed" ] ~docv:"N"
          ~doc:"First seed; seeds $(docv)..$(docv)+count-1 are run.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Parrun.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domains to fan seeds over (each seed is one replica).")
  in
  let require_coverage =
    Arg.(
      value & flag
      & info [ "require-coverage" ]
          ~doc:
            "After an aggregate run, fail unless its coverage meets the \
             contract: every fault kind declared by some scenario fired and \
             every invariant monitor inspected an event (the dedup monitor \
             only with $(b,--scenario)). With $(b,--scenario), also every \
             sampled library entry ran, every feature it declares \
             materialized, every migration strategy it promises started, \
             every placement policy dispatched (serve) and at least one \
             content-addressed manifest flowed.")
  in
  (* The shared replay flags (--scenario/--seed/--serve/--forwarding/
     --strategy) come from Replay.term: the same parser that REPLAY
     hint lines round-trip through. *)
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run randomly generated scenarios (seed = test case) under the \
          online invariant monitors; failures print a replayable seed.")
    Term.(
      const fuzz_cmd $ count $ base $ jobs $ Replay.term $ require_coverage)

let () =
  let info =
    Cmd.info "vsim" ~version:"1.0"
      ~doc:
        "Simulated V-System cluster: preemptable remote execution and \
         migration (SOSP 1985 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ exec_t; migrate_t; sweep_t; usage_t; serve_t; programs_t; fuzz_t ]))
