let seeded_jobs ~reps ~base_seed f =
  List.init reps (fun i () -> f ~seed:(base_seed + i))

type exec_result = {
  er_host : string;
  er_select : Time.span option;
  er_setup : Time.span;
  er_load : Time.span;
  er_total : Time.span;
}

let exec_result_to_json r =
  Json_min.Obj
    [
      ("host", Json_min.Str r.er_host);
      ( "select_ms",
        match r.er_select with
        | Some s -> Json_min.Num (Time.to_ms s)
        | None -> Json_min.Null );
      ("setup_ms", Json_min.Num (Time.to_ms r.er_setup));
      ("load_ms", Json_min.Num (Time.to_ms r.er_load));
      ("total_ms", Json_min.Num (Time.to_ms r.er_total));
    ]

let horizon_run ?(slack = Time.of_sec 200.) cl =
  Cluster.run cl ~until:(Time.add (Cluster.now cl) slack)

let remote_exec cl ?(ws = 0) ?(target = Remote_exec.Any) ~prog () =
  let result = ref (Error "experiment did not complete") in
  ignore
    (Cluster.shell cl ~ws ~name:"shell" (fun ctx ->
         match Remote_exec.exec ctx ~prog ~target with
         | Error e -> result := Error e
         | Ok h ->
             result :=
               Ok
                 {
                   er_host = h.Remote_exec.h_host;
                   er_select = h.Remote_exec.h_timings.Remote_exec.t_select;
                   er_setup = h.Remote_exec.h_timings.Remote_exec.t_setup;
                   er_load = h.Remote_exec.h_timings.Remote_exec.t_load;
                   er_total = h.Remote_exec.h_timings.Remote_exec.t_total;
                 };
             ignore (Remote_exec.wait ctx h)));
  horizon_run cl;
  !result

(* Locate the program record behind an execution handle. *)
let find_program cl (h : Remote_exec.handle) =
  match Cluster.find_workstation cl h.Remote_exec.h_host with
  | None -> None
  | Some w ->
      Progtable.find (Program_manager.table w.Cluster.ws_pm) h.Remote_exec.h_lh

(* Each launch runs this long before its first window, so start-up
   writes do not count. *)
let dirty_warmup = Time.of_sec 1.

let dirty_rate cl ~prog ~window ~reps =
  let eng = Cluster.engine cl in
  let samples = ref [] in
  let failure = ref None in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"sampler" (fun ctx ->
         let rec collect need =
           if need > 0 then begin
             match Remote_exec.exec ctx ~prog ~target:Remote_exec.Local with
             | Error e -> failure := Some e
             | Ok h -> (
                 match find_program cl h with
                 | None -> failure := Some "program record not found"
                 | Some p ->
                     Proc.sleep eng dirty_warmup;
                     let rec windows need =
                       if need > 0 then begin
                         ignore (Logical_host.clear_dirty p.Progtable.p_lh);
                         Proc.sleep eng window;
                         match p.Progtable.p_status with
                         | Progtable.Running | Progtable.Migrating
                         | Progtable.Suspended ->
                             samples :=
                               (float_of_int
                                  (Logical_host.dirty_bytes p.Progtable.p_lh)
                               /. 1024.)
                               :: !samples;
                             windows (need - 1)
                         | Progtable.Done _ ->
                             (* Finished mid-window: relaunch for the rest. *)
                             need
                       end
                       else 0
                     in
                     let left = windows need in
                     ignore (Remote_exec.wait ctx h);
                     collect left)
           end
         in
         collect reps));
  horizon_run cl ~slack:(Time.of_sec 600.);
  match (!failure, !samples) with
  | Some e, _ -> Error e
  | None, [] -> Error "no full windows observed"
  | None, xs ->
      Ok (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

let dirty_rate_jobs ?(workstations = 2) ~base_seed ~prog ~window ~reps () =
  seeded_jobs ~reps ~base_seed (fun ~seed ->
      let cl = Cluster.create ~seed ~workstations () in
      dirty_rate cl ~prog ~window ~reps:1)

let migrate_program cl ?(ws = 0) ?strategy ?(run_for = Time.of_sec 3.)
    ?(extra_processes = 0) ~prog () =
  let eng = Cluster.engine cl in
  let result = ref (Error "experiment did not complete") in
  ignore
    (Cluster.shell cl ~ws ~name:"shell" (fun ctx ->
         match Remote_exec.exec ctx ~prog ~target:Remote_exec.Any with
         | Error e -> result := Error ("exec: " ^ e)
         | Ok h -> (
             (match (find_program cl h, Cluster.find_workstation cl h.Remote_exec.h_host) with
             | Some p, Some host_ws ->
                 for _ = 1 to extra_processes do
                   ignore
                     (Kernel.spawn_process host_ws.Cluster.ws_kernel
                        p.Progtable.p_lh
                        (fun _ -> Proc.sleep eng (Time.of_sec 86_400.)))
                 done
             | _ -> ());
             Proc.sleep eng run_for;
             (* migrateprog addresses the manager by its own stable pid
                (obtained at selection time), not through the program's
                local-group id: the manager stays put when the program
                moves, and a non-idempotent request must keep talking to
                the host actually running it. *)
             result :=
               Result.map_error Remote_exec.migrate_error_message
                 (Remote_exec.migrate_program ?strategy
                    ~pm:h.Remote_exec.h_pm ctx h))));
  horizon_run cl;
  !result

let cluster_ps (ctx : Context.t) =
  Remote_exec.survey (Context.kernel ctx) ~self:(Context.self ctx)
    ~group:Ids.program_manager_group ~window:Config.select_timeout
  |> List.map (fun (_, host, programs, _) -> (host, programs))

let copy_rate cl ~bytes =
  let eng = Cluster.engine cl in
  let w = Cluster.workstation cl 0 in
  let span = ref Time.zero in
  ignore
    (Cluster.user cl ~ws:0 ~name:"copier" (fun _ _ ->
         let t0 = Engine.now eng in
         Kernel.bulk_transfer w.Cluster.ws_kernel ~bytes;
         span := Time.sub (Engine.now eng) t0));
  horizon_run cl;
  !span

let kernel_op_latency cl ~samples =
  let eng = Cluster.engine cl in
  let w = Cluster.workstation cl 0 in
  let k = w.Cluster.ws_kernel in
  let total = ref Time.zero in
  ignore
    (Cluster.user cl ~ws:0 ~name:"prober" (fun _ self ->
         let target = Ids.kernel_server_of (Logical_host.id (Kernel.host_lh k)) in
         for _ = 1 to samples do
           let t0 = Engine.now eng in
           ignore (Kernel.send k ~src:self ~dst:target (Message.make Kernel.Ks_ping));
           total := Time.add !total (Time.sub (Engine.now eng) t0)
         done));
  horizon_run cl;
  float_of_int (Time.to_us !total) /. float_of_int samples

(* {1 Usage} *)

type usage_params = {
  u_horizon : Time.span;
  u_job_rate_per_sec : float;
  u_progs : string list;
}

let default_usage_params =
  {
    u_horizon = Time.of_sec 600.;
    u_job_rate_per_sec = 0.1;
    u_progs = [ "cc68"; "preprocessor"; "assembler"; "make"; "tex" ];
  }

type usage_stats = {
  us_submitted : int;
  us_honored : int;
  us_refused : int;
  us_completed : int;
  us_preemptions : int;
  us_preempt_destroyed : int;
  us_mean_idle : float;
  us_owner_active_fraction : float;
  us_mean_freeze_ms : float;
}

let usage_to_json s =
  Json_min.Obj
    [
      ("submitted", Json_min.Num (float_of_int s.us_submitted));
      ("honored", Json_min.Num (float_of_int s.us_honored));
      ("refused", Json_min.Num (float_of_int s.us_refused));
      ("completed", Json_min.Num (float_of_int s.us_completed));
      ("preemptions", Json_min.Num (float_of_int s.us_preemptions));
      ( "preempt_destroyed",
        Json_min.Num (float_of_int s.us_preempt_destroyed) );
      ("mean_idle", Json_min.Num s.us_mean_idle);
      ("owner_active_fraction", Json_min.Num s.us_owner_active_fraction);
      ("mean_freeze_ms", Json_min.Num s.us_mean_freeze_ms);
    ]

let pp_usage ppf s =
  Format.fprintf ppf
    "@[<v>jobs: %d submitted, %d honored, %d refused, %d completed@ \
     preemptions: %d migrated, %d destroyed, mean freeze %.1f ms@ \
     workstations: %.1f%% idle, owners active %.1f%% of the time@]"
    s.us_submitted s.us_honored s.us_refused s.us_completed s.us_preemptions
    s.us_preempt_destroyed s.us_mean_freeze_ms (100. *. s.us_mean_idle)
    (100. *. s.us_owner_active_fraction)

(* The owner of a workstation: an on/off editing session. While active,
   the machine stops volunteering and any resident guests are preempted
   with migrateprog -n; editing itself is a light foreground CPU load
   that the priority scheduler serves ahead of guests. *)
let install_owner cl w ~preempted ~destroyed ~freeze_ms =
  let params = Arrivals.Owner.default in
  let eng = Cluster.engine cl in
  let rng = Cluster.rng cl in
  let pm = w.Cluster.ws_pm in
  let k = w.Cluster.ws_kernel in
  let active_gauge = Stats.Gauge.create eng ~initial:0. in
  let reclaim () =
    ignore
      (Cluster.user cl ~ws:w.Cluster.ws_index ~name:"owner-shell"
         (fun k self ->
           let before = Kernel.guest_count k in
           if before > 0 then
             match
               Remote_exec.migrate ~force_destroy:true k ~self
                 ~pm:(Program_manager.pid pm) None
             with
             | Ok outcomes ->
                 let n = List.length outcomes in
                 preempted := !preempted + n;
                 destroyed := !destroyed + Stdlib.max 0 (before - n);
                 List.iter
                   (fun o ->
                     freeze_ms :=
                       Time.to_ms (Protocol.freeze_span o) :: !freeze_ms)
                   outcomes
             | Error _ -> ()))
  in
  let owner =
    Arrivals.Owner.start eng rng params ~on_transition:(fun active ->
        Stats.Gauge.set active_gauge (if active then 1. else 0.);
        Program_manager.set_accepting pm (not active);
        if active then reclaim ())
  in
  (* Editing load: duty-cycled foreground computation while active. *)
  ignore
    (Proc.spawn eng (fun () ->
        let rec loop () =
          if Arrivals.Owner.active owner then begin
            Cpu.compute (Kernel.cpu k) ~priority:Cpu.Foreground
              Os_params.cpu_quantum;
            let idle_gap =
              Time.scale Os_params.cpu_quantum
                ((1. /. Float.max 0.01 params.Arrivals.Owner.active_cpu_fraction)
                -. 1.)
            in
            Proc.sleep eng idle_gap
          end
          else Proc.sleep eng (Time.of_ms 200.);
          loop ()
        in
        loop ()));
  active_gauge

let usage cl p =
  let eng = Cluster.engine cl in
  let submitted = ref 0
  and honored = ref 0
  and refused = ref 0
  and completed = ref 0
  and preempted = ref 0
  and destroyed = ref 0
  and freeze_ms = ref [] in
  let gauges =
    List.map
      (fun w -> install_owner cl w ~preempted ~destroyed ~freeze_ms)
      (Cluster.workstations cl)
  in
  let progs = Array.of_list p.u_progs in
  let n_ws = Cluster.size cl in
  Arrivals.poisson_stream eng (Cluster.rng cl)
    ~rate_per_sec:p.u_job_rate_per_sec
    ~until:p.u_horizon
    (fun j ->
      let ws = j mod n_ws in
      let prog = progs.(j mod Array.length progs) in
      incr submitted;
      ignore
        (Cluster.shell cl ~ws ~name:"job-shell" (fun ctx ->
             match Remote_exec.exec ctx ~prog ~target:Remote_exec.Any with
             | Error _ -> incr refused
             | Ok h -> (
                 incr honored;
                 match Remote_exec.wait ctx h with
                 | Ok _ -> incr completed
                 | Error _ -> ()))));
  Cluster.run cl ~until:p.u_horizon;
  let mean_idle =
    let xs =
      List.map
        (fun w -> 1. -. Cpu.busy_fraction (Kernel.cpu w.Cluster.ws_kernel))
        (Cluster.workstations cl)
    in
    List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let owner_active =
    List.fold_left (fun a g -> a +. Stats.Gauge.time_average g) 0. gauges
    /. float_of_int (List.length gauges)
  in
  let mean_freeze =
    match !freeze_ms with
    | [] -> 0.
    | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  {
    us_submitted = !submitted;
    us_honored = !honored;
    us_refused = !refused;
    us_completed = !completed;
    us_preemptions = !preempted;
    us_preempt_destroyed = !destroyed;
    us_mean_idle = mean_idle;
    us_owner_active_fraction = owner_active;
    us_mean_freeze_ms = mean_freeze;
  }
