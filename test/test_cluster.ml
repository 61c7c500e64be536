(* Tests for the cluster builder and the experiment scenarios: wiring
   invariants, determinism, admission control under selection bursts, and
   the cluster-wide query facilities. *)

let sec = Time.of_sec

(* {1 Construction} *)

let test_cluster_shape () =
  let cl = Cluster.create ~seed:1 ~workstations:5 () in
  Alcotest.(check int) "size" 5 (Cluster.size cl);
  Alcotest.(check int) "workstations list" 5 (List.length (Cluster.workstations cl));
  List.iteri
    (fun i w ->
      Alcotest.(check int) "index" i w.Cluster.ws_index;
      Alcotest.(check string) "name"
        (Printf.sprintf "ws%d" i)
        (Kernel.host_name w.Cluster.ws_kernel))
    (Cluster.workstations cl)

let test_find_workstation () =
  let cl = Cluster.create ~seed:1 ~workstations:3 () in
  (match Cluster.find_workstation cl "ws2" with
  | Some w -> Alcotest.(check int) "found" 2 w.Cluster.ws_index
  | None -> Alcotest.fail "ws2 missing");
  Alcotest.(check bool) "absent" true (Cluster.find_workstation cl "ws9" = None)

let test_env_for_bindings () =
  let cl = Cluster.create ~seed:1 ~workstations:2 () in
  let w = Cluster.workstation cl 1 in
  let env = Cluster.env_for cl w in
  Alcotest.(check string) "origin" "ws1" env.Env.origin_host;
  Alcotest.(check bool) "file server bound" true
    (Ids.pid_equal env.Env.file_server (File_server.pid (Cluster.file_server cl)));
  Alcotest.(check bool) "name cache warm" true
    (Env.cached_lookup env "fileserver" <> None);
  Alcotest.(check bool) "unknown name misses" true
    (Env.cached_lookup env "nonesuch" = None)

let test_images_published () =
  let cl = Cluster.create ~seed:1 ~workstations:2 () in
  List.iter
    (fun spec ->
      match
        File_server.file_size (Cluster.file_server cl)
          ~path:(spec.Programs.prog_name ^ ".in")
      with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.failf "%s.in missing" spec.Programs.prog_name)
    Programs.all

let test_memory_budget () =
  let cl = Cluster.create ~seed:1 ~workstations:2 ~memory_bytes:(512 * 1024) () in
  let w = Cluster.workstation cl 0 in
  Alcotest.(check int) "configured RAM" (512 * 1024)
    (Kernel.memory_bytes w.Cluster.ws_kernel)

(* A rebooted workstation brings its machine services back: a new
   manager that bids in its pod's scheduling group and holds the
   cluster's health view, and a new display server under "ws3:display". *)
let test_reboot_restores_services () =
  let cfg =
    { Config.default with Config.placement = Config.Pod_sharded { pod_size = 2 } }
  in
  let cl =
    Cluster.create ~seed:7 ~workstations:4 ~cfg
      ~faults:
        [
          Faults.Crash_host { host = "ws3"; at = sec 1. };
          Faults.Reboot_host { host = "ws3"; at = sec 2. };
        ]
      ()
  in
  let health = Cluster.enable_health cl in
  let ws3 = Cluster.workstation cl 3 in
  let old_pm = ws3.Cluster.ws_pm
  and old_display = Display_server.pid ws3.Cluster.ws_display in
  let bidders = ref [] in
  ignore
    (Cluster.shell cl ~ws:2 ~name:"shell" (fun ctx ->
         Proc.sleep (Cluster.engine cl) (sec 3.);
         bidders :=
           List.map
             (fun s -> s.Scheduler.s_host)
             (Scheduler.Spine.candidates (Context.kernel ctx)
                ~self:(Context.self ctx) ~group:(Ids.pod_group 1)
                ~bytes:(64 * 1024) ~window:(sec 0.5))));
  Cluster.run cl ~until:(sec 4.);
  let pm = ws3.Cluster.ws_pm and display = Display_server.pid ws3.Cluster.ws_display in
  Alcotest.(check bool) "a new manager" true (pm != old_pm);
  Alcotest.(check bool) "the new manager bids in its pod" true
    (List.mem "ws3" !bidders);
  Alcotest.(check bool) "a new display server" false
    (Ids.pid_equal display old_display);
  Alcotest.(check bool) "its name is bound to the new display" true
    (match Name_server.lookup_direct (Cluster.name_server cl) ~name:"ws3:display" with
    | Some pid -> Ids.pid_equal pid display
    | None -> false);
  Alcotest.(check bool) "the manager has the health view" true
    (match Program_manager.health pm with Some h -> h == health | None -> false)

(* {1 Determinism} *)

let test_identical_seeds_identical_runs () =
  let run () =
    let cl = Cluster.create ~seed:13 ~workstations:4 () in
    match Experiment.migrate_program cl ~prog:"parser" () with
    | Ok o ->
        ( o.Protocol.m_dest,
          List.map (fun r -> r.Protocol.r_bytes) o.Protocol.m_rounds,
          Time.to_us (Protocol.freeze_span o) )
    | Error e -> Alcotest.failf "migrate: %s" e
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical outcomes" true (a = b)

let test_different_seeds_diverge () =
  let freeze seed =
    let cl = Cluster.create ~seed ~workstations:4 () in
    match Experiment.migrate_program cl ~prog:"parser" () with
    | Ok o -> Time.to_us (Protocol.freeze_span o)
    | Error e -> Alcotest.failf "migrate: %s" e
  in
  (* Different stochastic dirtying: freeze times should differ at the
     microsecond grain (identical values would suggest a seeding bug). *)
  if freeze 1 = freeze 2 && freeze 2 = freeze 3 then
    Alcotest.fail "three seeds gave identical freeze times"

(* {1 Admission control under selection bursts} *)

let test_burst_respects_max_guests () =
  let cl = Cluster.create ~seed:21 ~workstations:4 () in
  let cfg = Cluster.cfg cl in
  (* 9 simultaneous submissions against 3 volunteers (ws0 disabled):
     nobody may exceed max_guests (3). *)
  Program_manager.set_accepting (Cluster.workstation cl 0).Cluster.ws_pm false;
  let placed = ref [] in
  for i = 1 to 9 do
    ignore
      (Cluster.shell cl ~ws:0 ~name:(Printf.sprintf "job%d" i) (fun ctx ->
           match
             Remote_exec.exec ctx ~prog:"cc68"
               ~target:Remote_exec.Any
           with
           | Ok h -> placed := h.Remote_exec.h_host :: !placed
           | Error _ -> ()))
  done;
  Cluster.run cl ~until:(sec 10.);
  let count host = List.length (List.filter (String.equal host) !placed) in
  List.iter
    (fun h ->
      if count h > cfg.Config.max_guests then
        Alcotest.failf "%s took %d guests (max %d)" h (count h)
          cfg.Config.max_guests)
    [ "ws1"; "ws2"; "ws3" ];
  (* Capacity is bounded by both max_guests and the processor-idleness
     criterion; the burst must spread across several hosts without any
     single host exceeding its cap. *)
  if List.length !placed < 6 then
    Alcotest.failf "only %d placed" (List.length !placed);
  Alcotest.(check int) "spread across all volunteers" 3
    (List.length (List.sort_uniq String.compare !placed))

let test_exec_retry_stops_eventually () =
  (* Guests forbidden everywhere: selection finds no volunteer and exec
     must terminate in error, not loop. *)
  let cl =
    Cluster.create ~seed:22 ~workstations:2
      ~cfg:{ Config.default with Config.max_guests = 0 }
      ()
  in
  let result = ref None in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         result :=
           Some (Remote_exec.exec ctx ~prog:"make" ~target:Remote_exec.Any)));
  Cluster.run cl ~until:(sec 30.);
  match !result with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "nobody should have taken the program"
  | None -> Alcotest.fail "driver did not finish"

(* {1 Cluster-wide survey} *)

let test_cluster_ps_sees_programs () =
  let cl = Cluster.create ~seed:23 ~workstations:4 () in
  let listing = ref [] in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"driver" (fun ctx ->
         let h =
           Result.get_ok
             (Remote_exec.exec ctx ~prog:"tex" ~target:Remote_exec.Any)
         in
         listing := Experiment.cluster_ps ctx;
         ignore h));
  Cluster.run cl ~until:(sec 60.);
  let hosts_with_programs =
    List.filter (fun (_, programs) -> programs <> []) !listing
  in
  Alcotest.(check int) "every PM answered" 4 (List.length !listing);
  (match hosts_with_programs with
  | [ (_, [ (prog, _, status) ]) ] ->
      Alcotest.(check string) "program" "tex" prog;
      Alcotest.(check string) "status" "running" status
  | _ -> Alcotest.fail "expected exactly one busy host");
  ()

(* {1 Bridged (two-segment) clusters} *)

let test_cross_segment_exec () =
  (* ws2/ws3 sit behind a 2 ms bridge; force execution there. Everything
     — selection multicast, creation, the image load from the segment-0
     file server — crosses the bridge. *)
  let cl = Cluster.create ~seed:51 ~workstations:4 ~bridged:2 () in
  List.iter
    (fun w ->
      if w.Cluster.ws_segment = 0 then
        Program_manager.set_accepting w.Cluster.ws_pm false)
    (Cluster.workstations cl);
  let r =
    match Experiment.remote_exec cl ~prog:"cc68" () with
    | Ok r -> r
    | Error e -> Alcotest.failf "cross-segment exec: %s" e
  in
  Alcotest.(check bool) "ran behind the bridge" true
    (List.mem r.Experiment.er_host [ "ws2"; "ws3" ]);
  (* The 44 KB image load pays the bridge: noticeably above the
     same-segment 143 ms. *)
  if Time.to_ms r.Experiment.er_load <= 145. then
    Alcotest.failf "load %.0f ms does not reflect the bridge"
      (Time.to_ms r.Experiment.er_load)

let test_cross_segment_migration () =
  (* A program on segment 0 is migrated; only a bridged host will take
     it. The whole five-step protocol runs across the bridge. *)
  let cl = Cluster.create ~seed:52 ~workstations:4 ~bridged:2 () in
  let far_accepts b =
    List.iter
      (fun w ->
        Program_manager.set_accepting w.Cluster.ws_pm
          (if w.Cluster.ws_segment = 1 then b else not b))
      (Cluster.workstations cl)
  in
  far_accepts false;
  (* Program lands on segment 0 (ws1, say)... *)
  let result = ref (Error "incomplete") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"optimizer"
             ~target:Remote_exec.Any
         with
         | Error e -> result := Error ("exec: " ^ e)
         | Ok h -> (
             Alcotest.(check bool) "started on segment 0" true
               ((Option.get (Cluster.find_workstation cl h.Remote_exec.h_host))
                  .Cluster.ws_segment = 0);
             (* ... then only far hosts volunteer for the migration. *)
             far_accepts true;
             Proc.sleep (Cluster.engine cl) (sec 1.);
             match Remote_exec.migrate_program ctx h with
             | Ok o -> (
                 match Remote_exec.wait ctx h with
                 | Ok (_, cpu) -> result := Ok (o, cpu)
                 | Error e -> result := Error ("wait: " ^ e))
             | Error _ -> result := Error "migration failed")));
  Cluster.run cl ~until:(sec 120.);
  match !result with
  | Error e -> Alcotest.fail e
  | Ok (o, cpu) ->
      Alcotest.(check bool) "landed behind the bridge" true
        ((Option.get (Cluster.find_workstation cl o.Protocol.m_dest))
           .Cluster.ws_segment = 1);
      Alcotest.(check bool) "full cpu" true
        (Float.abs (Time.to_sec cpu -. 10.) < 0.05)

(* {1 Experiment helpers} *)

let test_copy_rate_helper () =
  let cl = Cluster.create ~seed:2 ~workstations:2 () in
  let span = Experiment.copy_rate cl ~bytes:(512 * 1024) in
  let s = Time.to_sec span in
  if s < 1.45 || s > 1.55 then Alcotest.failf "512KB copy %.3fs, expected ~1.5" s

let test_kernel_op_latency_helper () =
  let cl = Cluster.create ~seed:2 ~workstations:2 () in
  let us = Experiment.kernel_op_latency cl ~samples:10 in
  (* Two ops (send + reply) at ~513us each plus a group lookup. *)
  if us < 900. || us > 1400. then Alcotest.failf "op latency %.0f us" us

let test_usage_determinism () =
  let run () =
    let cl = Cluster.create ~seed:31 ~workstations:6 () in
    Experiment.usage cl
      {
        Experiment.u_horizon = sec 60.;
        u_job_rate_per_sec = 0.2;
        u_progs = [ "cc68" ];
      }
  in
  let a = run () and b = run () in
  Alcotest.(check int) "submitted" a.Experiment.us_submitted b.Experiment.us_submitted;
  Alcotest.(check int) "honored" a.Experiment.us_honored b.Experiment.us_honored;
  Alcotest.(check int) "preempted" a.Experiment.us_preemptions b.Experiment.us_preemptions

let test_trace_flag () =
  let cl = Cluster.create ~seed:2 ~workstations:2 ~trace:true () in
  let tr = Cluster.tracer cl in
  Tracer.keep tr;
  ignore (Experiment.remote_exec cl ~prog:"make" ());
  Alcotest.(check bool) "trace captured" true (Tracer.seq tr > 0);
  (* Kept, so the trace runs to the last event, not only the boot log. *)
  Alcotest.(check int) "trace reaches the last event" (Tracer.seq tr - 1)
    (match List.rev (Tracer.records tr) with r :: _ -> r.Tracer.seq | [] -> -1);
  let cl2 = Cluster.create ~seed:2 ~workstations:2 () in
  ignore (Experiment.remote_exec cl2 ~prog:"make" ());
  Alcotest.(check int) "trace off by default" 0
    (List.length (Tracer.records (Cluster.tracer cl2)))

let () =
  Alcotest.run "v_cluster"
    [
      ( "construction",
        [
          Alcotest.test_case "shape" `Quick test_cluster_shape;
          Alcotest.test_case "find workstation" `Quick test_find_workstation;
          Alcotest.test_case "environment bindings" `Quick test_env_for_bindings;
          Alcotest.test_case "images published" `Quick test_images_published;
          Alcotest.test_case "memory budget" `Quick test_memory_budget;
          Alcotest.test_case "reboot restores services" `Quick
            test_reboot_restores_services;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same run" `Quick
            test_identical_seeds_identical_runs;
          Alcotest.test_case "different seeds diverge" `Quick
            test_different_seeds_diverge;
        ] );
      ( "admission",
        [
          Alcotest.test_case "burst respects max_guests" `Quick
            test_burst_respects_max_guests;
          Alcotest.test_case "retry terminates" `Quick
            test_exec_retry_stops_eventually;
        ] );
      ( "survey",
        [ Alcotest.test_case "cluster ps" `Quick test_cluster_ps_sees_programs ] );
      ( "bridged",
        [
          Alcotest.test_case "cross-segment exec" `Quick test_cross_segment_exec;
          Alcotest.test_case "cross-segment migration" `Quick
            test_cross_segment_migration;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "copy rate" `Quick test_copy_rate_helper;
          Alcotest.test_case "kernel op latency" `Quick
            test_kernel_op_latency_helper;
          Alcotest.test_case "usage determinism" `Quick test_usage_determinism;
          Alcotest.test_case "trace flag" `Quick test_trace_flag;
        ] );
    ]
