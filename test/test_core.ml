(* Integration tests for the core library: remote execution, the
   decentralized scheduler, pre-copy migration and its baselines, failure
   injection, preemption, and residual-dependency analysis. These drive
   whole simulated clusters. *)

let sec = Time.of_sec
let ms = Time.of_ms

let default_cluster ?(seed = 7) ?(workstations = 6) () =
  Cluster.create ~seed ~workstations ()

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let find_program cl (h : Remote_exec.handle) =
  match Cluster.find_workstation cl h.Remote_exec.h_host with
  | None -> None
  | Some w ->
      Progtable.find (Program_manager.table w.Cluster.ws_pm) h.Remote_exec.h_lh

(* {1 Remote execution} *)

let test_exec_local () =
  let cl = default_cluster () in
  let r = ok "exec" (Experiment.remote_exec cl ~target:Remote_exec.Local ~prog:"cc68" ()) in
  Alcotest.(check string) "ran at home" "ws0" r.Experiment.er_host;
  Alcotest.(check bool) "no selection phase" true (r.Experiment.er_select = None);
  (* Setup should be the configured 25 ms (give or take kernel ops). *)
  let setup_ms = Time.to_ms r.Experiment.er_setup in
  if setup_ms < 24. || setup_ms > 30. then
    Alcotest.failf "setup %.1f ms, expected ~25" setup_ms

let test_exec_any_selects_remote_host () =
  let cl = default_cluster () in
  let r = ok "exec" (Experiment.remote_exec cl ~prog:"cc68" ()) in
  (match r.Experiment.er_select with
  | None -> Alcotest.fail "expected a selection phase"
  | Some s ->
      (* The paper's measured 23 ms first-response time. *)
      let sel = Time.to_ms s in
      if sel < 15. || sel > 35. then
        Alcotest.failf "selection took %.1f ms, expected ~23" sel);
  Alcotest.(check bool) "some workstation answered" true
    (String.length r.Experiment.er_host > 0)

let test_exec_load_scales_with_image () =
  let cl = default_cluster () in
  let small = ok "cc68" (Experiment.remote_exec cl ~prog:"cc68" ()) in
  let cl2 = default_cluster () in
  let large = ok "tex" (Experiment.remote_exec cl2 ~prog:"tex" ()) in
  let ratio =
    Time.to_ms large.Experiment.er_load /. Time.to_ms small.Experiment.er_load
  in
  (* tex image (260 KB) vs cc68 (44 KB): load must scale roughly 6x. *)
  if ratio < 4. || ratio > 8. then
    Alcotest.failf "load ratio %.2f, expected ~5.9" ratio;
  (* And the rate itself: ~330 ms / 100 KB. *)
  let tex_kb =
    float_of_int (File_server.image_file_bytes (Programs.find "tex").Programs.image)
    /. 1024.
  in
  let rate = Time.to_ms large.Experiment.er_load /. (tex_kb /. 100.) in
  if rate < 280. || rate > 400. then
    Alcotest.failf "load rate %.0f ms/100KB, expected ~330" rate

let test_exec_named_host () =
  let cl = default_cluster () in
  let result = ref (Error "no result") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         result :=
           Remote_exec.exec ctx ~prog:"make"
             ~target:(Remote_exec.Named "ws3")));
  Cluster.run cl ~until:(sec 30.);
  let h = ok "named exec" !result in
  Alcotest.(check string) "landed on ws3" "ws3" h.Remote_exec.h_host

let test_exec_unknown_program () =
  let cl = default_cluster () in
  match Experiment.remote_exec cl ~prog:"no-such-prog" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown program must fail"

let test_exec_nobody_accepting () =
  let cl = default_cluster ~workstations:3 () in
  List.iter
    (fun w -> Program_manager.set_accepting w.Cluster.ws_pm false)
    (Cluster.workstations cl);
  match Experiment.remote_exec cl ~prog:"make" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no volunteers: exec @* must fail"

let test_exec_and_wait_reports_times () =
  let cl = default_cluster () in
  let result = ref (Error "no result") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         result :=
           Remote_exec.exec_and_wait ctx ~prog:"cc68"
             ~target:Remote_exec.Any));
  Cluster.run cl ~until:(sec 60.);
  let _, wall, cpu = ok "exec_and_wait" !result in
  (* cc68 demands 6 s of CPU on an idle host. *)
  let cpu_s = Time.to_sec cpu in
  if cpu_s < 5.9 || cpu_s > 6.1 then Alcotest.failf "cpu %.2fs, expected ~6" cpu_s;
  if Time.(wall < cpu) then Alcotest.fail "wall < cpu is impossible"

let test_display_output_reaches_origin () =
  let cl = default_cluster () in
  ignore (ok "exec" (Experiment.remote_exec cl ~ws:2 ~prog:"make" ()));
  let origin = Cluster.workstation cl 2 in
  let lines = Display_server.output origin.Cluster.ws_display in
  Alcotest.(check bool) "done-line on originating display" true
    (List.exists
       (fun l ->
         String.length l >= 4 && String.equal (String.sub l 0 4) "make")
       lines)

(* {1 Scheduler} *)

let test_scheduler_collects_all_idle () =
  let cl = default_cluster ~workstations:4 () in
  let sels = ref [] in
  ignore
    (Cluster.user cl ~ws:0 ~name:"survey" (fun k self ->
         sels :=
           Scheduler.Spine.candidates k ~self ~bytes:(64 * 1024)
             ~window:(ms 200.)));
  Cluster.run cl ~until:(sec 2.);
  (* All four workstations are idle and accepting. *)
  Alcotest.(check int) "four volunteers" 4 (List.length !sels)

let test_scheduler_excludes_host () =
  let cl = default_cluster ~workstations:3 () in
  let sels = ref [] in
  ignore
    (Cluster.user cl ~ws:0 ~name:"survey" (fun k self ->
         sels :=
           Scheduler.Spine.candidates ~exclude:[ "ws1" ] k ~self
             ~bytes:1024 ~window:(ms 200.)));
  Cluster.run cl ~until:(sec 2.);
  Alcotest.(check int) "two volunteers" 2 (List.length !sels);
  Alcotest.(check bool) "ws1 silent" true
    (not (List.exists (fun s -> s.Scheduler.s_host = "ws1") !sels))

(* {1 Migration} *)

let test_migrate_precopy_tex () =
  let cl = default_cluster () in
  let o = ok "migrate" (Experiment.migrate_program cl ~prog:"tex" ()) in
  (* Multiple pre-copy rounds, a small frozen residue, and sub-second
     freeze — the paper's headline behaviour. *)
  let rounds = List.length o.Protocol.m_rounds in
  if rounds < 2 then Alcotest.failf "expected >=2 copy rounds, got %d" rounds;
  let first_round = List.hd o.Protocol.m_rounds in
  Alcotest.(check int) "first round copies the whole space"
    (first_round.Protocol.r_bytes / 1024)
    708;
  if o.Protocol.m_final_bytes >= first_round.Protocol.r_bytes then
    Alcotest.fail "residue must be far below the full size";
  let freeze = Time.to_ms (Protocol.freeze_span o) in
  if freeze > 500. then Alcotest.failf "freeze %.0f ms too long" freeze;
  if freeze < 5. then Alcotest.failf "freeze %.1f ms implausibly short" freeze

let test_migrate_program_still_completes () =
  let cl = default_cluster () in
  let done_count = ref 0 in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"assembler"
             ~target:Remote_exec.Any
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h -> (
             Proc.sleep (Cluster.engine cl) (sec 2.);
             (match Remote_exec.migrate_program ctx h with
             | Ok _ -> ()
             | Error _ -> Alcotest.fail "migration failed");
             match Remote_exec.wait ctx h with
             | Ok (_, cpu) ->
                 (* The full 8 s of CPU despite moving hosts mid-run. *)
                 let s = Time.to_sec cpu in
                 if s < 7.9 || s > 8.1 then
                   Alcotest.failf "cpu %.2f, expected ~8" s;
                 incr done_count
             | Error e -> Alcotest.failf "wait: %s" e)));
  Cluster.run cl ~until:(sec 120.);
  Alcotest.(check int) "completed exactly once" 1 !done_count

let test_freeze_and_copy_baseline_much_slower () =
  let cl1 = default_cluster () in
  let pre = ok "precopy" (Experiment.migrate_program cl1 ~prog:"tex" ()) in
  let cl2 = default_cluster () in
  let frz =
    ok "freeze-and-copy"
      (Experiment.migrate_program cl2 ~strategy:Protocol.Freeze_and_copy
         ~prog:"tex" ())
  in
  let f_pre = Time.to_ms (Protocol.freeze_span pre) in
  let f_frz = Time.to_ms (Protocol.freeze_span frz) in
  (* 708 KB at 3 s/MB frozen: >2 s, vs a few hundred ms for pre-copy. *)
  if f_frz < 2000. then Alcotest.failf "baseline froze only %.0f ms" f_frz;
  if f_frz /. f_pre < 5. then
    Alcotest.failf "pre-copy advantage only %.1fx" (f_frz /. f_pre)

let test_vm_flush_short_freeze_but_double_transfer () =
  let cl = default_cluster () in
  let fs = Cluster.file_server cl in
  let o =
    ok "vm-flush"
      (Experiment.migrate_program cl
         ~strategy:(Protocol.Vm_flush { page_server = File_server.pid fs })
         ~prog:"tex" ())
  in
  let freeze = Time.to_ms (Protocol.freeze_span o) in
  if freeze > 500. then Alcotest.failf "vm-flush freeze %.0f ms" freeze;
  if o.Protocol.m_faultin_bytes <= 0 then
    Alcotest.fail "vm-flush must report double-transferred pages"

let test_migrate_kernel_state_scales_with_processes () =
  let cl1 = default_cluster () in
  let small = ok "m1" (Experiment.migrate_program cl1 ~prog:"optimizer" ()) in
  let cl2 = default_cluster () in
  let big =
    ok "m2"
      (Experiment.migrate_program cl2 ~extra_processes:8 ~prog:"optimizer" ())
  in
  let d =
    Time.to_ms big.Protocol.m_kernel_state
    -. Time.to_ms small.Protocol.m_kernel_state
  in
  (* 8 extra processes at 9 ms each. *)
  if d < 71. || d > 73. then Alcotest.failf "delta %.1f ms, expected 72" d

let test_migrate_dest_dies_mid_copy () =
  let cl = default_cluster ~workstations:3 () in
  (* Make only ws2 able to volunteer as a destination, then kill it
     during the (seconds-long) pre-copy of tex. *)
  let result = ref (Error (Remote_exec.No_answer "no result")) in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h ->
             Program_manager.set_accepting (Cluster.workstation cl 0).Cluster.ws_pm false;
             Proc.sleep (Cluster.engine cl) (sec 2.);
             (* Schedule the destination's death mid-transfer. *)
             ignore
               (Engine.schedule_after (Cluster.engine cl) (ms 500.) (fun () ->
                    Kernel.shutdown (Cluster.workstation cl 2).Cluster.ws_kernel));
             result := Remote_exec.migrate_program ctx h;
             (* Immediately after the failure, the program must still be
                resident on ws1 and unfrozen — the recovery path of
                Section 3.1.3. *)
             let ws1 = Cluster.workstation cl 1 in
             (match Program_manager.programs ws1.Cluster.ws_pm with
             | [ p ] ->
                 Alcotest.(check bool) "unfrozen" false
                   (Logical_host.frozen p.Progtable.p_lh)
             | ps ->
                 Alcotest.failf "expected 1 program on ws1, found %d"
                   (List.length ps))));
  Cluster.run cl ~until:(sec 120.);
  match !result with
  | Error (Remote_exec.Refused _) -> ()
  | Ok _ -> Alcotest.fail "migration to a dead host cannot succeed"
  | Error (Remote_exec.No_answer e) ->
      Alcotest.failf "migrate request itself failed: %s" e

let test_migrateprog_all_guests () =
  let cl = default_cluster ~workstations:4 () in
  (* Park two guests on ws1 by disabling everyone else. *)
  List.iter
    (fun w ->
      if w.Cluster.ws_index <> 1 then
        Program_manager.set_accepting w.Cluster.ws_pm false)
    (Cluster.workstations cl);
  let outcomes = ref [] in
  ignore
    (Cluster.user cl ~ws:0 ~name:"shell" (fun k self ->
         let ctx = Cluster.context cl ~ws:0 ~self in
         let h1 =
           Result.get_ok
             (Remote_exec.exec ctx ~prog:"parser" ~target:Remote_exec.Any)
         in
         let h2 =
           Result.get_ok
             (Remote_exec.exec ctx ~prog:"optimizer" ~target:Remote_exec.Any)
         in
         Alcotest.(check string) "both on ws1 (a)" "ws1" h1.Remote_exec.h_host;
         Alcotest.(check string) "both on ws1 (b)" "ws1" h2.Remote_exec.h_host;
         (* Now re-enable ws2/ws3 as destinations and evict everything. *)
         Program_manager.set_accepting (Cluster.workstation cl 2).Cluster.ws_pm true;
         Program_manager.set_accepting (Cluster.workstation cl 3).Cluster.ws_pm true;
         Proc.sleep (Cluster.engine cl) (sec 1.);
         match
           Remote_exec.migrate k ~self
             ~pm:(Program_manager.pid (Cluster.workstation cl 1).Cluster.ws_pm)
             None
         with
         | Ok os -> outcomes := os
         | Error _ -> Alcotest.fail "migrateprog failed"));
  Cluster.run cl ~until:(sec 200.);
  Alcotest.(check int) "both guests migrated" 2 (List.length !outcomes);
  Alcotest.(check int) "ws1 empty" 0
    (List.length (Program_manager.programs (Cluster.workstation cl 1).Cluster.ws_pm))

let test_migrateprog_force_destroy_when_no_host () =
  let cl = default_cluster ~workstations:2 () in
  (* Only ws1 accepts; once the guest is there, nobody else can take it. *)
  Program_manager.set_accepting (Cluster.workstation cl 0).Cluster.ws_pm false;
  let replied = ref false in
  ignore
    (Cluster.user cl ~ws:0 ~name:"shell" (fun k self ->
         let ctx = Cluster.context cl ~ws:0 ~self in
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:Remote_exec.Any
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h -> (
             Proc.sleep (Cluster.engine cl) (sec 1.);
             match
               Remote_exec.migrate ~force_destroy:true k ~self
                 ~pm:(Ids.program_manager_of h.Remote_exec.h_lh)
                 (Some h.Remote_exec.h_lh)
             with
             | Ok [] -> replied := true
             | _ -> Alcotest.fail "expected empty outcome list (destroyed)")));
  Cluster.run cl ~until:(sec 60.);
  Alcotest.(check bool) "migrateprog -n replied" true !replied;
  Alcotest.(check int) "guest destroyed" 0
    (List.length (Program_manager.programs (Cluster.workstation cl 1).Cluster.ws_pm))

let exec_then_migrate cl ~prog ctx =
  (* The driver lives on ws0; keep the program off it so killing the
     program's old host never kills the driver. *)
  Program_manager.set_accepting (Cluster.workstation cl 0).Cluster.ws_pm false;
  match Remote_exec.exec ctx ~prog ~target:Remote_exec.Any with
  | Error e -> Error ("exec: " ^ e)
  | Ok h -> (
      Proc.sleep (Cluster.engine cl) (sec 1.);
      match Remote_exec.migrate_program ctx h with
      | Ok o -> Ok (h, o)
      | Error _ -> Error "migration failed")

(* {1 Program management: suspend / resume / destroy (Section 2)} *)

let test_suspend_resume_stretches_wall_time () =
  let cl = default_cluster () in
  let result = ref None in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"cc68"
             ~target:Remote_exec.Any
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h ->
             Proc.sleep (Cluster.engine cl) (sec 1.);
             (match Remote_exec.suspend ctx h with
             | Ok () -> ()
             | Error e -> Alcotest.failf "suspend: %s" e);
             (* Frozen: CPU consumption must not advance. *)
             let p = Option.get (find_program cl h) in
             let cpu_at_suspend = p.Progtable.p_cpu_used in
             Proc.sleep (Cluster.engine cl) (sec 5.);
             Alcotest.(check int) "no cpu while suspended"
               (Time.to_us cpu_at_suspend)
               (Time.to_us p.Progtable.p_cpu_used);
             (match Remote_exec.resume ctx h with
             | Ok () -> ()
             | Error e -> Alcotest.failf "resume: %s" e);
             result := Some (Remote_exec.wait ctx h)));
  Cluster.run cl ~until:(sec 60.);
  match !result with
  | Some (Ok (wall, cpu)) ->
      Alcotest.(check bool) "full cpu" true
        (Float.abs (Time.to_sec cpu -. 6.0) < 0.05);
      (* 6s of work + 5s suspension: wall must exceed 11s. *)
      if Time.to_sec wall < 11.0 then
        Alcotest.failf "wall %.1fs should include the 5s suspension"
          (Time.to_sec wall)
  | Some (Error e) -> Alcotest.failf "wait: %s" e
  | None -> Alcotest.fail "experiment incomplete"

let test_suspend_twice_refused () =
  let cl = default_cluster () in
  let second = ref None in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         let h =
           Result.get_ok
             (Remote_exec.exec ctx ~prog:"tex"
                ~target:Remote_exec.Any)
         in
         Proc.sleep (Cluster.engine cl) (sec 1.);
         ignore (Remote_exec.suspend ctx h);
         second := Some (Remote_exec.suspend ctx h)));
  Cluster.run cl ~until:(sec 30.);
  match !second with
  | Some (Error _) -> ()
  | Some (Ok ()) -> Alcotest.fail "double suspend must be refused"
  | None -> Alcotest.fail "incomplete"

let test_migrate_suspended_refused () =
  let cl = default_cluster () in
  let refused = ref false in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         let h =
           Result.get_ok
             (Remote_exec.exec ctx ~prog:"tex"
                ~target:Remote_exec.Any)
         in
         Proc.sleep (Cluster.engine cl) (sec 1.);
         ignore (Remote_exec.suspend ctx h);
         match Remote_exec.migrate_program ctx h with
         | Error (Remote_exec.Refused _) -> refused := true
         | Ok _ | Error (Remote_exec.No_answer _) -> ()));
  Cluster.run cl ~until:(sec 30.);
  Alcotest.(check bool) "suspended program not migratable" true !refused

let test_destroy_answers_waiters_with_failure () =
  let cl = default_cluster () in
  let wait_result = ref None in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         let h =
           Result.get_ok
             (Remote_exec.exec ctx ~prog:"tex"
                ~target:Remote_exec.Any)
         in
         (* A second shell waits for completion... *)
         ignore
           (Cluster.shell cl ~ws:1 ~name:"waiter" (fun ctx2 ->
                wait_result := Some (Remote_exec.wait ctx2 h)));
         Proc.sleep (Cluster.engine cl) (sec 2.);
         (* ... and the owner kills the program. *)
         match Remote_exec.destroy ctx h with
         | Ok () -> ()
         | Error e -> Alcotest.failf "destroy: %s" e));
  Cluster.run cl ~until:(sec 60.);
  match !wait_result with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "waiter of a destroyed program must see failure"
  | None -> Alcotest.fail "waiter never answered"

let test_suspend_works_across_migration () =
  (* Location independence: suspend the program through its logical-host
     id after it has moved — the request finds the new host's manager. *)
  let cl = default_cluster () in
  let suspended = ref None in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match exec_then_migrate cl ~prog:"tex" ctx with
         | Error e -> Alcotest.fail e
         | Ok (h, o) ->
             ignore o;
             suspended := Some (Remote_exec.suspend ctx h)));
  Cluster.run cl ~until:(sec 60.);
  match !suspended with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "suspend after migration: %s" e
  | None -> Alcotest.fail "incomplete"

(* {1 Sub-programs (Section 3)} *)

let test_subprograms_share_logical_host () =
  let cl = default_cluster () in
  let checks = ref 0 in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:Remote_exec.Any
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h -> (
             match find_program cl h with
             | None -> Alcotest.fail "record missing"
             | Some parent ->
                 let sub1 =
                   Result.get_ok
                     (Subprogram.spawn (Cluster.directory cl) (Cluster.rng cl)
                        ~parent ~prog:"cc68")
                 in
                 let sub2 =
                   Result.get_ok
                     (Subprogram.spawn (Cluster.directory cl) (Cluster.rng cl)
                        ~parent ~prog:"assembler")
                 in
                 (* Same logical host, three address spaces. *)
                 Alcotest.(check int) "same lh (sub1)" h.Remote_exec.h_lh
                   (Subprogram.pid sub1).Ids.lh;
                 Alcotest.(check int) "same lh (sub2)" h.Remote_exec.h_lh
                   (Subprogram.pid sub2).Ids.lh;
                 Alcotest.(check int) "three spaces" 3
                   (List.length (Logical_host.spaces parent.Progtable.p_lh));
                 incr checks;
                 (* Both subs run to completion; their CPU is charged to
                    the parent's account. *)
                 Alcotest.(check bool) "sub1 completes" true
                   (Subprogram.join sub1 = Proc.Normal);
                 Alcotest.(check bool) "sub2 completes" true
                   (Subprogram.join sub2 = Proc.Normal);
                 let charged = Time.to_sec parent.Progtable.p_cpu_used in
                 (* >= 6 (cc68) + 8 (assembler); parent still running. *)
                 if charged < 14.0 then
                   Alcotest.failf "only %.1fs charged" charged;
                 incr checks)));
  Cluster.run cl ~until:(sec 120.);
  Alcotest.(check int) "assertions ran" 2 !checks

let test_subprograms_migrate_with_parent () =
  let cl = default_cluster () in
  let outcome = ref None in
  let sub_exit = ref None in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:Remote_exec.Any
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h -> (
             match find_program cl h with
             | None -> Alcotest.fail "record missing"
             | Some parent -> (
                 let sub =
                   Result.get_ok
                     (Subprogram.spawn (Cluster.directory cl) (Cluster.rng cl)
                        ~parent ~prog:"parser")
                 in
                 Proc.sleep (Cluster.engine cl) (sec 2.);
                 match Remote_exec.migrate_program ctx h with
                 | Ok o ->
                     outcome := Some o;
                     (* The sub-program survives the move and finishes. *)
                     sub_exit := Some (Subprogram.join sub)
                 | Error _ -> Alcotest.fail "migration failed"))));
  Cluster.run cl ~until:(sec 200.);
  (match !outcome with
  | None -> Alcotest.fail "no migration outcome"
  | Some o ->
      (* 2 processes + 2 spaces minimum: kernel state >= 14 + 9*4 ms. *)
      if Time.to_ms o.Protocol.m_kernel_state < 50. then
        Alcotest.failf "kernel state %.0f ms too small for two spaces"
          (Time.to_ms o.Protocol.m_kernel_state));
  Alcotest.(check bool) "sub-program completed after migration" true
    (!sub_exit = Some Proc.Normal)

let test_remote_subprogram_does_not_migrate_with_parent () =
  (* The paper's exception: "when a sub-program is executed remotely from
     its parent program" it lives in its own logical host and stays put
     when the parent moves. *)
  let checked = ref false in
  let cl = default_cluster ~seed:61 () in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:Remote_exec.Any
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok parent_h -> (
             (* The parent "executes a sub-program remotely": same library
                call, from anywhere. *)
             match
               Remote_exec.exec ctx ~prog:"cc68"
                 ~target:Remote_exec.Any
             with
             | Error e -> Alcotest.failf "child exec: %s" e
             | Ok child_h -> (
                 Alcotest.(check bool) "separate logical hosts" true
                   (parent_h.Remote_exec.h_lh <> child_h.Remote_exec.h_lh);
                 let child_host_before = child_h.Remote_exec.h_host in
                 Proc.sleep (Cluster.engine cl) (sec 1.);
                 match Remote_exec.migrate_program ctx parent_h with
                 | Ok _ ->
                     (* The remotely executed child did not move. *)
                     let w =
                       Option.get (Cluster.find_workstation cl child_host_before)
                     in
                     Alcotest.(check bool) "child still at its host" true
                       (Kernel.find_lh w.Cluster.ws_kernel
                          child_h.Remote_exec.h_lh
                       <> None);
                     checked := true
                 | Error _ -> Alcotest.fail "parent migration failed"))));
  Cluster.run cl ~until:(sec 60.);
  Alcotest.(check bool) "assertions ran" true !checked

let test_usage_on_bridged_cluster () =
  let cl = Cluster.create ~seed:71 ~workstations:10 ~bridged:4 () in
  let stats =
    Experiment.usage cl
      {
        Experiment.u_horizon = sec 120.;
        u_job_rate_per_sec = 0.1;
        u_progs = [ "cc68"; "make" ];
      }
  in
  Alcotest.(check bool) "jobs ran across the internet" true
    (stats.Experiment.us_honored > 0);
  Alcotest.(check int) "none refused" 0 stats.Experiment.us_refused

(* {1 Load balancing (Section 6 future work)} *)

let test_balancer_spreads_skewed_load () =
  (* Pile six guests onto ws1 explicitly, then let the balancer use the
     preemption facility to even things out. *)
  let cfg = { Config.default with Config.max_guests = 8 } in
  let cl = Cluster.create ~seed:41 ~workstations:5 ~cfg () in
  let completed = ref 0 in
  for i = 1 to 6 do
    ignore
      (Cluster.shell cl ~ws:0 ~name:(Printf.sprintf "job%d" i) (fun ctx ->
           match
             Remote_exec.exec_and_wait ctx ~prog:"optimizer"
               ~target:(Remote_exec.Named "ws1")
           with
           | Ok _ -> incr completed
           | Error e -> Alcotest.failf "job: %s" e))
  done;
  let b =
    Balancer.start ~interval:(sec 3.)
      (Cluster.workstation cl 0).Cluster.ws_kernel
  in
  Cluster.run cl ~until:(sec 120.);
  Alcotest.(check int) "all six completed" 6 !completed;
  if Balancer.rebalances b < 2 then
    Alcotest.failf "balancer moved only %d guests" (Balancer.rebalances b);
  Alcotest.(check bool) "it kept surveying" true (Balancer.surveys b > 5)

let test_balancer_idle_cluster_no_moves () =
  let cl = Cluster.create ~seed:42 ~workstations:4 () in
  let b =
    Balancer.start ~interval:(sec 2.)
      (Cluster.workstation cl 0).Cluster.ws_kernel
  in
  Cluster.run cl ~until:(sec 30.);
  Alcotest.(check int) "nothing to move" 0 (Balancer.rebalances b);
  Balancer.stop b

(* {1 Rebinding ablation: Demos/MP forwarding addresses (Section 5)} *)

let forwarding_cluster ?(workstations = 4) seed =
  let cfg =
    {
      Config.default with
      Config.os = { Os_params.default with Os_params.rebind = Os_params.Forwarding };
    }
  in
  Cluster.create ~seed ~workstations ~cfg ()

let test_forwarding_relays_stale_references () =
  let cl = forwarding_cluster 31 in
  let done_ok = ref false in
  let old_host = ref "" in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match exec_then_migrate cl ~prog:"assembler" ctx with
         | Error e -> Alcotest.fail e
         | Ok (h, o) -> (
             old_host := o.Protocol.m_from;
             (* Our binding for the program's logical host is stale (it
                points at the old host); with no Where_is mechanism the
                completion wait must ride the forwarding address. *)
             match Remote_exec.wait ctx h with
             | Ok _ -> done_ok := true
             | Error e -> Alcotest.failf "wait via forwarding: %s" e)));
  Cluster.run cl ~until:(sec 120.);
  Alcotest.(check bool) "completed" true !done_ok;
  match Cluster.find_workstation cl !old_host with
  | Some w ->
      (* The residual load the paper criticizes: the old host relayed. *)
      if Kernel.count w.Cluster.ws_kernel Kernel.Forwarded = 0 then
        Alcotest.fail "expected forwarded packets at the old host"
  | None -> Alcotest.fail "old host not found"

let test_forwarding_fails_after_old_host_reboot () =
  (* The paper's criticism of Demos/MP, demonstrated: reboot the old host
     while a stale reference exists; the reference dies. The same
     scenario under V's broadcast-query rebinding succeeds. *)
  let run_mode ~forwarding =
    let cl =
      if forwarding then forwarding_cluster 32
      else Cluster.create ~seed:32 ~workstations:4 ()
    in
    let result = ref None in
    ignore
      (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
           match exec_then_migrate cl ~prog:"tex" ctx with
           | Error e -> Alcotest.fail e
           | Ok (h, o) ->
               (match Cluster.find_workstation cl o.Protocol.m_from with
               | Some w -> Kernel.shutdown w.Cluster.ws_kernel
               | None -> Alcotest.fail "old host not found");
               result := Some (Remote_exec.wait ctx h)));
    Cluster.run cl ~until:(sec 200.);
    !result
  in
  (match run_mode ~forwarding:true with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "forwarding should break on old-host reboot"
  | None -> Alcotest.fail "forwarding scenario incomplete");
  match run_mode ~forwarding:false with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "V rebinding should survive reboot: %s" e
  | None -> Alcotest.fail "V scenario incomplete"

(* {1 Residual dependencies} *)

let test_no_residual_dependencies_with_global_servers () =
  let cl = default_cluster () in
  let checked = ref false in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"parser"
             ~target:Remote_exec.Any
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h -> (
             Proc.sleep (Cluster.engine cl) (sec 1.);
             match
               Cluster.find_workstation cl h.Remote_exec.h_host
               |> Fun.flip Option.bind (fun w ->
                      Progtable.find
                        (Program_manager.table w.Cluster.ws_pm)
                        h.Remote_exec.h_lh)
             with
             | None -> Alcotest.fail "program record missing"
             | Some p ->
                 (* Files and names come from the server machine; the only
                    cross-host binding besides it is the owner's display. *)
                 let deps =
                   Residual.residual_hosts ~ignore_display:true (Cluster.directory cl) p
                 in
                 Alcotest.(check (list string))
                   "only the server machine" [ "fileserver" ] deps;
                 Alcotest.(check bool) "origin not depended on" false
                   (Residual.depends_on ~ignore_display:true (Cluster.directory cl) p
                      ~host:"ws0");
                 checked := true)));
  Cluster.run cl ~until:(sec 30.);
  Alcotest.(check bool) "assertions ran" true !checked

let test_survives_origin_reboot_after_migration () =
  (* The no-residual-dependency claim, end to end: run remotely from ws0,
     migrate the program elsewhere, reboot ws0 — the program must still
     complete. (Its completion line is lost with ws0's display, so we
     watch the program record.) *)
  let cl = default_cluster () in
  let prog_ref = ref None in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"optimizer"
             ~target:Remote_exec.Any
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h -> (
             Proc.sleep (Cluster.engine cl) (sec 1.);
             match Remote_exec.migrate_program ctx h with
             | Ok o -> (
                 match
                   Cluster.find_workstation cl o.Protocol.m_dest
                   |> Fun.flip Option.bind (fun w ->
                          Progtable.find
                            (Program_manager.table w.Cluster.ws_pm)
                            h.Remote_exec.h_lh)
                 with
                 | Some p ->
                     prog_ref := Some p;
                     (* Origin reboots. *)
                     Kernel.shutdown (Cluster.workstation cl 0).Cluster.ws_kernel
                 | None -> Alcotest.fail "record not owned at the destination")
             | Error _ -> Alcotest.fail "migration failed")));
  Cluster.run cl ~until:(sec 120.);
  match !prog_ref with
  | Some p -> (
      match p.Progtable.p_status with
      | Progtable.Done _ -> ()
      | _ -> Alcotest.fail "program did not survive origin reboot")
  | None -> Alcotest.fail "experiment did not reach the reboot"

let test_freeze_span_matches_program_experience () =
  (* Cross-validate the protocol's reported freeze span against what the
     program itself experiences: sample its accumulated CPU every 10 ms
     and find the longest stall. The two views must agree to within the
     sampling grain plus a scheduler quantum. *)
  let cl = default_cluster ~seed:77 () in
  let eng = Cluster.engine cl in
  let outcome = ref None in
  let longest_stall = ref Time.zero in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match exec_then_migrate cl ~prog:"tex" ctx with
         | Error e -> Alcotest.fail e
         | Ok (_, o) -> outcome := Some o));
  ignore
    (Cluster.user cl ~ws:0 ~name:"observer" (fun k _ ->
         ignore k;
         (* Find the program record once it exists. *)
         let rec find_p () =
           let p =
             List.find_map
               (fun w ->
                 match Program_manager.programs w.Cluster.ws_pm with
                 | p :: _ -> Some p
                 | [] -> None)
               (Cluster.workstations cl)
           in
           match p with
           | Some p -> p
           | None ->
               Proc.sleep eng (ms 10.);
               find_p ()
         in
         let p = find_p () in
         let last_progress = ref (Engine.now eng) in
         let last_cpu = ref Time.zero in
         for _ = 1 to 2000 do
           Proc.sleep eng (ms 10.);
           if Time.(p.Progtable.p_cpu_used > !last_cpu) then begin
             let stall = Time.sub (Engine.now eng) !last_progress in
             if Time.(stall > !longest_stall) then longest_stall := stall;
             last_cpu := p.Progtable.p_cpu_used;
             last_progress := Engine.now eng
           end
         done));
  Cluster.run cl ~until:(sec 60.);
  match !outcome with
  | None -> Alcotest.fail "no migration outcome"
  | Some o ->
      let reported = Time.to_ms (Protocol.freeze_span o) in
      let observed = Time.to_ms !longest_stall in
      (* The observed stall includes up to one sampling period and one
         scheduler quantum of slack around the true freeze. *)
      if observed < reported -. 1. || observed > reported +. 45. then
        Alcotest.failf
          "program experienced a %.1f ms stall but the protocol reported \
           %.1f ms frozen"
          observed reported

(* {1 Property sweeps: migration correctness under random conditions}

   The paper's correctness argument (Section 3.1.3) is that atomic
   transfer plus the IPC recovery machinery make migration invisible:
   whatever the timing, the program runs to completion having received
   exactly its CPU demand. We sweep random seeds, migration trigger
   times, strategies and loss rates. *)

let run_migration_scenario ~seed ~migrate_after_ms ~strategy ~loss =
  let net_config = { Ethernet.default_config with loss_probability = loss } in
  let cl = Cluster.create ~seed ~workstations:5 ~net_config () in
  let strategy =
    match strategy with
    | 0 -> Protocol.Precopy
    | 1 -> Protocol.Freeze_and_copy
    | _ -> Protocol.Vm_flush { page_server = File_server.pid (Cluster.file_server cl) }
  in
  let verdict = ref (Error "scenario incomplete") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"assembler"
             ~target:Remote_exec.Any
         with
         | Error e -> verdict := Error ("exec: " ^ e)
         | Ok h -> (
             Proc.sleep (Cluster.engine cl) (Time.of_ms (float_of_int migrate_after_ms));
             let migrated =
               Result.is_ok
                 (Remote_exec.migrate_program ~strategy ~pm:h.Remote_exec.h_pm
                    ctx h)
             in
             match Remote_exec.wait ctx h with
             | Ok (_, cpu) ->
                 let s = Time.to_sec cpu in
                 if s < 7.99 || s > 8.01 then
                   verdict := Error (Printf.sprintf "cpu %.3f after %s" s
                                       (if migrated then "migration" else "no migration"))
                 else verdict := Ok ()
             | Error e -> verdict := Error ("wait: " ^ e))));
  Cluster.run cl ~until:(sec 300.);
  !verdict

let prop_migration_invisible =
  QCheck.Test.make ~name:"program unaffected by migration timing/strategy"
    ~count:25
    QCheck.(triple (int_bound 1000) (int_bound 6000) (int_bound 2))
    (fun (seed, migrate_after_ms, strategy) ->
      match
        run_migration_scenario ~seed:(seed + 1) ~migrate_after_ms ~strategy
          ~loss:0.
      with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

let prop_migration_survives_loss =
  QCheck.Test.make ~name:"migration correct under packet loss" ~count:10
    QCheck.(pair (int_bound 1000) (int_bound 40))
    (fun (seed, loss_millis) ->
      match
        run_migration_scenario ~seed:(seed + 5000) ~migrate_after_ms:2000
          ~strategy:0
          ~loss:(float_of_int loss_millis /. 1000.)
      with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "loss=%d/1000: %s" loss_millis e)

(* {1 Dirty-rate measurement (Table 4-1 plumbing)} *)

let test_dirty_rate_matches_calibration () =
  let cl = default_cluster () in
  let measured =
    ok "dirty" (Experiment.dirty_rate cl ~prog:"tex" ~window:(sec 1.) ~reps:3)
  in
  (* The paper's tex row says 111.6 KB/s-window; the stochastic model
     should land within ~20%. *)
  if measured < 85. || measured > 135. then
    Alcotest.failf "tex 1s dirty %.1f KB, expected ~111.6" measured

(* {1 Usage smoke test} *)

let test_usage_smoke () =
  let cl = default_cluster ~workstations:8 () in
  let stats =
    Experiment.usage cl
      {
        Experiment.u_horizon = sec 120.;
        u_job_rate_per_sec = 0.15;
        u_progs = [ "cc68"; "make"; "assembler" ];
      }
  in
  Alcotest.(check bool) "jobs submitted" true (stats.Experiment.us_submitted > 0);
  Alcotest.(check bool) "most jobs honored" true
    (stats.Experiment.us_honored * 10 >= stats.Experiment.us_submitted * 6);
  if stats.Experiment.us_mean_idle < 0.5 then
    Alcotest.failf "idle fraction %.2f too low" stats.Experiment.us_mean_idle

let () =
  Alcotest.run "v_core"
    [
      ( "remote-exec",
        [
          Alcotest.test_case "local" `Quick test_exec_local;
          Alcotest.test_case "@* selects a host (23ms)" `Quick
            test_exec_any_selects_remote_host;
          Alcotest.test_case "load scales with image" `Quick
            test_exec_load_scales_with_image;
          Alcotest.test_case "@machine" `Quick test_exec_named_host;
          Alcotest.test_case "unknown program" `Quick test_exec_unknown_program;
          Alcotest.test_case "no volunteers" `Quick test_exec_nobody_accepting;
          Alcotest.test_case "wait reports cpu/wall" `Quick
            test_exec_and_wait_reports_times;
          Alcotest.test_case "display output at origin" `Quick
            test_display_output_reaches_origin;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "collects all idle" `Quick
            test_scheduler_collects_all_idle;
          Alcotest.test_case "exclusion" `Quick test_scheduler_excludes_host;
        ] );
      ( "migration",
        [
          Alcotest.test_case "precopy tex" `Quick test_migrate_precopy_tex;
          Alcotest.test_case "program completes across move" `Quick
            test_migrate_program_still_completes;
          Alcotest.test_case "freeze-and-copy baseline" `Quick
            test_freeze_and_copy_baseline_much_slower;
          Alcotest.test_case "vm-flush" `Quick
            test_vm_flush_short_freeze_but_double_transfer;
          Alcotest.test_case "kernel state scales" `Quick
            test_migrate_kernel_state_scales_with_processes;
          Alcotest.test_case "destination dies mid-copy" `Quick
            test_migrate_dest_dies_mid_copy;
          Alcotest.test_case "migrateprog all guests" `Quick
            test_migrateprog_all_guests;
          Alcotest.test_case "force destroy (-n)" `Quick
            test_migrateprog_force_destroy_when_no_host;
        ] );
      ( "management",
        [
          Alcotest.test_case "suspend/resume" `Quick
            test_suspend_resume_stretches_wall_time;
          Alcotest.test_case "double suspend refused" `Quick
            test_suspend_twice_refused;
          Alcotest.test_case "migrate suspended refused" `Quick
            test_migrate_suspended_refused;
          Alcotest.test_case "destroy fails waiters" `Quick
            test_destroy_answers_waiters_with_failure;
          Alcotest.test_case "suspend across migration" `Quick
            test_suspend_works_across_migration;
        ] );
      ( "subprograms",
        [
          Alcotest.test_case "share the logical host" `Quick
            test_subprograms_share_logical_host;
          Alcotest.test_case "migrate with the parent" `Quick
            test_subprograms_migrate_with_parent;
        ] );
      ( "remote-subprograms",
        [
          Alcotest.test_case "remote child stays put" `Quick
            test_remote_subprogram_does_not_migrate_with_parent;
          Alcotest.test_case "usage on bridged cluster" `Quick
            test_usage_on_bridged_cluster;
        ] );
      ( "load-balancing",
        [
          Alcotest.test_case "spreads skewed load" `Quick
            test_balancer_spreads_skewed_load;
          Alcotest.test_case "idle cluster untouched" `Quick
            test_balancer_idle_cluster_no_moves;
        ] );
      ( "rebinding-ablation",
        [
          Alcotest.test_case "forwarding relays stale refs" `Quick
            test_forwarding_relays_stale_references;
          Alcotest.test_case "forwarding breaks on reboot, V does not" `Quick
            test_forwarding_fails_after_old_host_reboot;
        ] );
      ( "residual",
        [
          Alcotest.test_case "global servers leave none" `Quick
            test_no_residual_dependencies_with_global_servers;
          Alcotest.test_case "survives origin reboot" `Quick
            test_survives_origin_reboot_after_migration;
        ] );
      ( "workload",
        [
          Alcotest.test_case "dirty rate matches calibration" `Quick
            test_dirty_rate_matches_calibration;
        ] );
      ( "usage",
        [ Alcotest.test_case "pool-of-processors smoke" `Quick test_usage_smoke ] );
      ( "freeze-validation",
        [
          Alcotest.test_case "reported freeze = experienced stall" `Quick
            test_freeze_span_matches_program_experience;
        ] );
      ( "property-sweeps",
        List.map QCheck_alcotest.to_alcotest
          [ prop_migration_invisible; prop_migration_survives_loss ] );
    ]
