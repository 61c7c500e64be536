(* Tests for the fault-injection subsystem and the crash/loss recovery
   hardening it exercises: plan parsing, reservation TTL, destination
   crashes at every pre-copy round, retry-with-reselection, re-execution,
   partition/reboot behaviour, and determinism under chaos. *)

let sec = Time.of_sec
let ms = Time.of_ms

(* {1 Plan parsing} *)

let test_parse_plan () =
  match Faults.parse "crash:ws2@4.5; reboot:ws2@9;loss:0.02@2-10" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok plan -> (
      Alcotest.(check int) "three events" 3 (List.length plan);
      match plan with
      | [
       Faults.Crash_host { host = ch; at = cat };
       Faults.Reboot_host { host = rh; at = _ };
       Faults.Loss_window { p; start; stop };
      ] ->
          Alcotest.(check string) "crash host" "ws2" ch;
          Alcotest.(check bool) "crash at" true (cat = Time.of_sec 4.5);
          Alcotest.(check string) "reboot host" "ws2" rh;
          Alcotest.(check (float 1e-9)) "loss p" 0.02 p;
          Alcotest.(check bool) "loss window" true
            (start = sec 2. && stop = sec 10.)
      | _ -> Alcotest.fail "wrong event shapes")

let test_parse_partition_slow () =
  match Faults.parse "partition@3-6;slow:ws1x4@0-20" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok
      [
        Faults.Partition_bridge { start; stop };
        Faults.Slow_host { host; factor; start = _; stop = _ };
      ] ->
      Alcotest.(check bool) "partition window" true
        (start = sec 3. && stop = sec 6.);
      Alcotest.(check string) "slow host" "ws1" host;
      Alcotest.(check (float 1e-9)) "slow factor" 4.0 factor
  | Ok _ -> Alcotest.fail "wrong event shapes"

let test_parse_rejects_garbage () =
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "";
      "crash:ws1";
      "crash:@3";
      "loss:1.5@0-3";
      "loss:0.1@5-2";
      "slow:ws1x0.5@0-3";
      "explode:ws1@3";
    ]

let test_parse_flaky_crashrack () =
  match Faults.parse "flaky:ws3@2-10;crashrack:ws1+ws2+ws3@4.5" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok
      [
        Faults.Flaky_host { host; start; stop };
        Faults.Crash_rack { hosts; at };
      ] ->
      Alcotest.(check string) "flaky host" "ws3" host;
      Alcotest.(check bool) "flaky window" true
        (start = sec 2. && stop = sec 10.);
      Alcotest.(check (list string)) "rack hosts" [ "ws1"; "ws2"; "ws3" ] hosts;
      Alcotest.(check bool) "rack instant" true (at = sec 4.5)
  | Ok _ -> Alcotest.fail "wrong event shapes"

(* Rejections must say how to fix the clause, not just that it is bad. *)
let test_rejections_are_actionable () =
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (bad, expected) ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S -> %S (got %S)" bad expected e)
            true
            (contains ~sub:expected e))
    [
      ("loss:0.1@9-2", "runs backwards");
      ("partition@6-3", "runs backwards");
      ("flaky:ws1@5-5", "is empty");
      ("crash:ws1@-3", "is negative");
      ("slow:ws1x0.5@0-3", "must be at least 1");
      ("slow:ws1x-2@0-3", "must be at least 1");
      ("crashrack:ws1@4", "name at least two hosts");
    ]

(* {1 Print/parse round trip}

   [pp_plan] claims to emit exactly the clause syntax [parse] accepts,
   for any valid plan. Hold it to that with a generator spanning all
   seven event kinds, microsecond-precision times, and shortest-decimal
   floats. *)

let gen_plan =
  let open QCheck.Gen in
  let host = oneofl [ "ws1"; "ws2"; "ws7"; "fs0"; "bridge-a" ] in
  let t = map Time.of_us (int_bound 120_000_000) in
  (* stop - start >= 1 us, so the printed window never collapses. *)
  let window =
    map2
      (fun a d -> (Time.of_us a, Time.of_us (a + 1 + d)))
      (int_bound 60_000_000) (int_bound 59_999_999)
  in
  let event =
    oneof
      [
        map2 (fun host at -> Faults.Crash_host { host; at }) host t;
        map2 (fun host at -> Faults.Reboot_host { host; at }) host t;
        map2
          (fun p (start, stop) -> Faults.Loss_window { p; start; stop })
          (float_bound_inclusive 1.) window;
        map (fun (start, stop) -> Faults.Partition_bridge { start; stop }) window;
        map3
          (fun host f (start, stop) ->
            Faults.Slow_host { host; factor = 1. +. f; start; stop })
          host (float_bound_inclusive 15.) window;
        map2
          (fun host (start, stop) -> Faults.Flaky_host { host; start; stop })
          host window;
        map2
          (fun hosts at -> Faults.Crash_rack { hosts; at })
          (list_size (int_range 2 4) host)
          t;
      ]
  in
  list_size (int_range 1 6) event

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (pp_plan plan) = Ok plan"
    (QCheck.make
       ~print:(fun plan -> Format.asprintf "%a" Faults.pp_plan plan)
       gen_plan)
    (fun plan ->
      match Faults.parse (Format.asprintf "%a" Faults.pp_plan plan) with
      | Ok plan' -> plan' = plan
      | Error e -> QCheck.Test.fail_reportf "did not re-parse: %s" e)

let test_plan_validated_against_cluster () =
  (match
     Cluster.create ~seed:1 ~workstations:2
       ~faults:[ Faults.Crash_host { host = "ws9"; at = sec 1. } ]
       ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown host accepted");
  match
    Cluster.create ~seed:1 ~workstations:2
      ~faults:[ Faults.Partition_bridge { start = sec 1.; stop = sec 2. } ]
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "partition accepted on unbridged cluster"

(* {1 Reservation TTL} *)

let test_reservation_expires_when_untouched () =
  let cl = Cluster.create ~seed:7 ~workstations:2 () in
  let k = (Cluster.workstation cl 1).Cluster.ws_kernel in
  let free0 = Kernel.memory_free k in
  let temp = Ids.Lh_allocator.fresh (Kernel.allocator k) in
  Alcotest.(check bool) "reserved" true
    (Kernel.reserve_lh k ~temp_lh:temp ~bytes:(256 * 1024));
  Alcotest.(check int) "memory held" (free0 - (256 * 1024))
    (Kernel.memory_free k);
  (* Nothing ever addresses the reserved id: the 15 s lease must run out
     and release the memory. *)
  Cluster.run cl ~until:(sec 20.);
  Alcotest.(check int) "reservation gone" 0 (Kernel.reservation_count k);
  Alcotest.(check int) "memory released" free0 (Kernel.memory_free k);
  Alcotest.(check int) "expiry counted" 1 (Kernel.count k Kernel.Reservations_expired)

let test_reservation_ttl_disabled () =
  let cfg =
    {
      Config.default with
      Config.os =
        { Os_params.default with Os_params.reservation_ttl = Time.zero };
    }
  in
  let cl = Cluster.create ~seed:7 ~workstations:2 ~cfg () in
  let k = (Cluster.workstation cl 1).Cluster.ws_kernel in
  let temp = Ids.Lh_allocator.fresh (Kernel.allocator k) in
  ignore (Kernel.reserve_lh k ~temp_lh:temp ~bytes:1024);
  Cluster.run cl ~until:(sec 60.);
  Alcotest.(check int) "reservation survives" 1 (Kernel.reservation_count k);
  Alcotest.(check int) "no expiry" 0 (Kernel.count k Kernel.Reservations_expired)

let test_healthy_migration_never_expires () =
  (* A normal pre-copy migration: the copy-round pings refresh the lease,
     install consumes the reservation, and the expiry counter must stay
     zero everywhere. *)
  let cl = Cluster.create ~seed:11 ~workstations:4 () in
  (match Experiment.migrate_program cl ~prog:"tex" () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Cluster.run cl ~until:(sec 120.);
  List.iter
    (fun w ->
      let k = w.Cluster.ws_kernel in
      Alcotest.(check int)
        (Kernel.host_name k ^ " expired")
        0
        (Kernel.count k Kernel.Reservations_expired);
      Alcotest.(check int)
        (Kernel.host_name k ^ " leaked")
        0 (Kernel.reservation_count k))
    (Cluster.workstations cl)

let test_source_crash_releases_reservation () =
  (* The source crashes mid-pre-copy: the destination's reservation is
     never installed and never cancelled — only the TTL can release it.
     tex's initial copy takes ~2.2 s, so a crash 1 s into the copy leaves
     the reservation parked. *)
  let cl =
    Cluster.create ~seed:12 ~workstations:4
      ~faults:[ Faults.Crash_host { host = "ws1"; at = sec 4.2 } ]
      ()
  in
  List.iteri
    (fun i w ->
      Program_manager.set_accepting w.Cluster.ws_pm (i = 1 || i = 2))
    (Cluster.workstations cl);
  ignore
    (Cluster.user cl ~ws:0 ~name:"shell" (fun k self ->
         let ctx = Cluster.context cl ~ws:0 ~self in
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h ->
             Program_manager.set_accepting
               (Cluster.workstation cl 1).Cluster.ws_pm false;
             Proc.sleep (Cluster.engine cl) (sec 3.);
             (* Fire and forget: the source will die mid-migration, so
                no reply ever comes. *)
             ignore
               (Kernel.send k ~src:self
                  ~dst:(Program_manager.pid (Cluster.workstation cl 1).Cluster.ws_pm)
                  (Message.make
                     (Protocol.Pm_migrate
                        {
                          lh = Some h.Remote_exec.h_lh;
                          dest = None;
                          force_destroy = false;
                          strategy = Protocol.Precopy;
                        })))));
  Cluster.run cl ~until:(sec 60.);
  let dest = (Cluster.workstation cl 2).Cluster.ws_kernel in
  Alcotest.(check int) "reservation released" 0 (Kernel.reservation_count dest);
  Alcotest.(check bool) "expiry fired" true
    (Kernel.count dest Kernel.Reservations_expired > 0);
  Alcotest.(check int) "full memory back" (Kernel.memory_bytes dest)
    (Kernel.memory_free dest
    + List.fold_left
        (fun acc lh -> acc + Logical_host.total_bytes lh)
        0
        (Kernel.logical_hosts dest))

(* {1 Destination crash at each pre-copy round} *)

(* Run a tex migration ws1 -> ws2 and crash ws2 once its kernel server
   has answered [k] copy-round pings. Returns (migration result, wait
   result, source free-memory before/after, dest kernel). *)
let crash_dest_at_round ~round =
  let cl = Cluster.create ~seed:(40 + round) ~workstations:4 () in
  let eng = Cluster.engine cl in
  List.iteri
    (fun i w -> Program_manager.set_accepting w.Cluster.ws_pm (i = 1))
    (Cluster.workstations cl);
  let dest = (Cluster.workstation cl 2).Cluster.ws_kernel in
  let migration = ref (Error "did not run") in
  let wait_result = ref (Error "did not run") in
  let free_before = ref 0 and free_after = ref 0 in
  (* Watchdog: kill the destination the instant ping [round] is answered
     (its reply is already on the wire, so the source sees the round
     acknowledged and starts the next step). *)
  ignore
    (Proc.spawn eng ~name:"assassin" (fun () ->
         while Kernel.count dest Kernel.Ks_pings < round do
           Proc.sleep eng (ms 5.)
         done;
         Kernel.shutdown dest));
  ignore
    (Cluster.user cl ~ws:0 ~name:"shell" (fun k self ->
         let ctx = Cluster.context cl ~ws:0 ~self in
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h ->
             Program_manager.set_accepting
               (Cluster.workstation cl 1).Cluster.ws_pm false;
             Program_manager.set_accepting
               (Cluster.workstation cl 2).Cluster.ws_pm true;
             Proc.sleep eng (sec 3.);
             let src = (Cluster.workstation cl 1).Cluster.ws_kernel in
             free_before := Kernel.memory_free src;
             migration :=
               (match
                  Kernel.send k ~src:self
                    ~dst:
                      (Program_manager.pid
                         (Cluster.workstation cl 1).Cluster.ws_pm)
                    (Message.make
                       (Protocol.Pm_migrate
                          {
                            lh = Some h.Remote_exec.h_lh;
                            dest = None;
                            force_destroy = false;
                            strategy = Protocol.Precopy;
                          }))
                with
               | Ok { Message.body = Protocol.Pm_migrate_failed m; _ } ->
                   Error m
               | Ok { Message.body = Protocol.Pm_migrated [ o ]; _ } ->
                   Ok o.Protocol.m_dest
               | Ok _ -> Error "malformed reply"
               | Error e -> Error (Format.asprintf "%a" Kernel.pp_send_error e));
             free_after := Kernel.memory_free src;
             wait_result := Remote_exec.wait ctx h));
  Cluster.run cl ~until:(sec 120.);
  (!migration, !wait_result, (!free_before, !free_after), dest)

let test_dest_crash_at_round round () =
  let migration, wait_result, (free_before, free_after), dest =
    crash_dest_at_round ~round
  in
  (match migration with
  | Error _ -> ()
  | Ok d -> Alcotest.failf "round %d: migration claimed success to %s" round d);
  (* The source re-installed and unfroze the program: it finishes. *)
  (match wait_result with
  | Ok (_, cpu) ->
      Alcotest.(check bool) "full cpu" true
        (Float.abs (Time.to_sec cpu -. 30.) < 0.1)
  | Error e -> Alcotest.failf "round %d: program lost after rollback: %s" round e);
  Alcotest.(check int)
    (Printf.sprintf "round %d: source memory restored" round)
    free_before free_after;
  Alcotest.(check int)
    (Printf.sprintf "round %d: no reservation on crashed dest" round)
    0 (Kernel.reservation_count dest)

(* {1 Retry with reselection} *)

let test_retry_reselects_excluding_failed () =
  (* ws2 is the only destination and dies after the first copy round;
     ws3 opens up at the same moment. With retries enabled, the second
     attempt must land on ws3 — never back on the corpse. *)
  let cfg = { Config.default with Config.migration_retries = 2 } in
  let cl = Cluster.create ~seed:61 ~workstations:4 ~cfg () in
  let eng = Cluster.engine cl in
  List.iteri
    (fun i w -> Program_manager.set_accepting w.Cluster.ws_pm (i = 1))
    (Cluster.workstations cl);
  let dest = (Cluster.workstation cl 2).Cluster.ws_kernel in
  ignore
    (Proc.spawn eng ~name:"assassin" (fun () ->
         while Kernel.count dest Kernel.Ks_pings < 1 do
           Proc.sleep eng (ms 5.)
         done;
         Kernel.shutdown dest;
         Program_manager.set_accepting
           (Cluster.workstation cl 3).Cluster.ws_pm true));
  let outcome = ref (Error "did not run") in
  ignore
    (Cluster.user cl ~ws:0 ~name:"shell" (fun k self ->
         let ctx = Cluster.context cl ~ws:0 ~self in
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h -> (
             Program_manager.set_accepting
               (Cluster.workstation cl 1).Cluster.ws_pm false;
             Program_manager.set_accepting
               (Cluster.workstation cl 2).Cluster.ws_pm true;
             Proc.sleep eng (sec 3.);
             match
               Kernel.send k ~src:self
                 ~dst:
                   (Program_manager.pid (Cluster.workstation cl 1).Cluster.ws_pm)
                 (Message.make
                    (Protocol.Pm_migrate
                       {
                         lh = Some h.Remote_exec.h_lh;
                         dest = None;
                         force_destroy = false;
                         strategy = Protocol.Precopy;
                       }))
             with
             | Ok { Message.body = Protocol.Pm_migrated [ o ]; _ } ->
                 outcome := Ok o.Protocol.m_dest
             | Ok { Message.body = Protocol.Pm_migrate_failed m; _ } ->
                 outcome := Error m
             | _ -> outcome := Error "malformed reply")));
  Cluster.run cl ~until:(sec 200.);
  match !outcome with
  | Ok d -> Alcotest.(check string) "retried onto the live host" "ws3" d
  | Error e -> Alcotest.failf "retry did not recover: %s" e

(* {1 Re-execution on host failure} *)

let test_reexec_on_host_crash () =
  let cl =
    Cluster.create ~seed:71 ~workstations:4
      ~faults:[ Faults.Crash_host { host = "ws1"; at = sec 2. } ]
      ()
  in
  (* Only ws1 volunteers initially; it dies 2 s into make's 8 s run. *)
  List.iteri
    (fun i w -> Program_manager.set_accepting w.Cluster.ws_pm (i = 1))
    (Cluster.workstations cl);
  ignore
    (Engine.schedule (Cluster.engine cl) ~at:(sec 2.) (fun () ->
         List.iteri
           (fun i w -> Program_manager.set_accepting w.Cluster.ws_pm (i = 2))
           (Cluster.workstations cl)));
  let result = ref (Error "did not run") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         result :=
           Remote_exec.exec_and_wait ~on_host_failure:(`Reexec 3) ctx
             ~prog:"make" ~target:Remote_exec.Any));
  Cluster.run cl ~until:(sec 120.);
  match !result with
  | Ok (h, _, cpu) ->
      Alcotest.(check string) "re-ran on the live host" "ws2"
        h.Remote_exec.h_host;
      Alcotest.(check bool) "full cpu on rerun" true
        (Float.abs (Time.to_sec cpu -. 8.) < 0.1)
  | Error e -> Alcotest.failf "re-execution failed: %s" e

(* {1 Partition and reboot} *)

let test_partition_window_heals () =
  (* An exec across the bridge straddles a partition window: frames are
     lost while severed, the retransmission machinery (with capped
     backoff) rides it out, and the program still completes after the
     bridge heals. The 7 s outage needs a give-up horizon above the
     default 5 s — a kernel that has given up is correct behaviour but
     not what this test is about. *)
  let cfg =
    {
      Config.default with
      Config.os =
        { Os_params.default with Os_params.give_up_after = sec 12. };
    }
  in
  let cl =
    Cluster.create ~seed:81 ~workstations:4 ~bridged:2 ~cfg
      ~faults:[ Faults.Partition_bridge { start = sec 1.; stop = sec 8. } ]
      ()
  in
  List.iter
    (fun w ->
      if w.Cluster.ws_segment = 0 then
        Program_manager.set_accepting w.Cluster.ws_pm false)
    (Cluster.workstations cl);
  let result = ref (Error "did not run") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         result :=
           Remote_exec.exec_and_wait ctx ~prog:"cc68"
             ~target:Remote_exec.Any));
  Cluster.run cl ~until:(sec 120.);
  match !result with
  | Ok (h, wall, _) ->
      Alcotest.(check bool) "ran behind the bridge" true
        (List.mem h.Remote_exec.h_host [ "ws2"; "ws3" ]);
      (* The partition must actually have cost something: a clean run
         takes ~6.5 s; straddling a 7 s outage cannot. *)
      Alcotest.(check bool) "partition delayed the run" true
        (Time.to_sec wall > 6.9)
  | Error e -> Alcotest.failf "exec across partition: %s" e

let test_crash_reboot_cycle () =
  (* ws1 crashes and reboots; afterwards it must serve programs again
     (fresh program manager, same well-known pids). *)
  let cl =
    Cluster.create ~seed:91 ~workstations:3
      ~faults:
        [
          Faults.Crash_host { host = "ws1"; at = sec 1. };
          Faults.Reboot_host { host = "ws1"; at = sec 3. };
        ]
      ()
  in
  List.iteri
    (fun i w -> Program_manager.set_accepting w.Cluster.ws_pm (i = 1))
    (Cluster.workstations cl);
  let result = ref (Error "did not run") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         Proc.sleep (Cluster.engine cl) (sec 5.);
         result :=
           Remote_exec.exec_and_wait ctx ~prog:"cc68"
             ~target:Remote_exec.Any));
  Cluster.run cl ~until:(sec 120.);
  (match !result with
  | Ok (h, _, _) ->
      Alcotest.(check string) "rebooted host serves again" "ws1"
        h.Remote_exec.h_host
  | Error e -> Alcotest.failf "exec after reboot: %s" e);
  let k1 = (Cluster.workstation cl 1).Cluster.ws_kernel in
  Alcotest.(check int) "reboot counted" 1 (Kernel.count k1 Kernel.Reboots)

let test_slow_host_stretches_run () =
  let run faults =
    let cl = Cluster.create ~seed:95 ~workstations:2 ?faults () in
    let wall = ref Time.zero in
    ignore
      (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
           match
             Remote_exec.exec_and_wait ctx
               ~prog:"cc68" ~target:(Remote_exec.Named "ws1")
           with
           | Ok (_, w, _) -> wall := w
           | Error e -> Alcotest.failf "exec: %s" e));
    Cluster.run cl ~until:(sec 200.);
    Time.to_sec !wall
  in
  let nominal = run None in
  let slowed =
    run (Some [ Faults.Slow_host { host = "ws1"; factor = 4.0; start = sec 0.; stop = sec 100. } ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "4x slowdown stretches the run (%.1f -> %.1f s)" nominal
       slowed)
    true
    (slowed > 3. *. nominal)

(* {1 Chaos: loss + partition + crash, all at once} *)

(* The acceptance scenario: 2% frame loss, a bridge partition window,
   and a destination crash mid-migration. Every exec_and_wait caller
   must get an answer, every migration must complete or roll back, and
   no kernel may leak reservations, forwards, or guest logical hosts. *)
let chaos_run ?(watch = ignore) ~seed () =
  let cfg = { Config.default with Config.migration_retries = 2 } in
  let cl =
    Cluster.create ~seed ~workstations:6 ~bridged:2 ~cfg
      ~faults:
        [
          Faults.Loss_window { p = 0.02; start = sec 0.; stop = sec 40. };
          Faults.Partition_bridge { start = sec 12.; stop = sec 16. };
          Faults.Crash_host { host = "ws2"; at = sec 4.5 };
          Faults.Reboot_host { host = "ws2"; at = sec 25. };
        ]
      ()
  in
  watch cl;
  let eng = Cluster.engine cl in
  let results = ref [] in
  (* Three independent jobs, started from different workstations. *)
  List.iteri
    (fun i (ws, prog, delay) ->
      ignore
        (Cluster.shell cl ~ws ~name:(Printf.sprintf "shell%d" i) (fun ctx ->
             Proc.sleep eng delay;
             let r =
               Remote_exec.exec_and_wait ~on_host_failure:(`Reexec 3) ctx ~prog ~target:Remote_exec.Any
             in
             results := (i, Result.is_ok r) :: !results)))
    [ (0, "cc68", ms 10.); (3, "make", ms 200.); (4, "assembler", ms 400.) ];
  (* One migration whose chosen destination may be the crashing ws2. *)
  let migration = ref "no result" in
  ignore
    (Cluster.user cl ~ws:0 ~name:"migrator" (fun k self ->
         let ctx = Cluster.context cl ~ws:0 ~self in
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> migration := "exec: " ^ e
         | Ok h -> (
             Proc.sleep eng (sec 3.);
             match
               Kernel.send k ~src:self
                 ~dst:
                   (Program_manager.pid (Cluster.workstation cl 1).Cluster.ws_pm)
                 (Message.make
                    (Protocol.Pm_migrate
                       {
                         lh = Some h.Remote_exec.h_lh;
                         dest = None;
                         force_destroy = false;
                         strategy = Protocol.Precopy;
                       }))
             with
             | Ok { Message.body = Protocol.Pm_migrated [ _ ]; _ } -> (
                 migration := "migrated";
                 match Remote_exec.wait ctx h with
                 | Ok _ -> migration := "migrated+completed"
                 | Error e -> migration := "migrated but lost: " ^ e)
             | Ok { Message.body = Protocol.Pm_migrate_failed _; _ } -> (
                 migration := "rolled back";
                 match Remote_exec.wait ctx h with
                 | Ok _ -> migration := "rolled back+completed"
                 | Error e -> migration := "rolled back but lost: " ^ e)
             | Ok _ -> migration := "malformed reply"
             | Error e ->
                 migration := Format.asprintf "%a" Kernel.pp_send_error e)));
  Cluster.run cl ~until:(sec 300.);
  (cl, !results, !migration)

let test_chaos_everyone_answered () =
  let cl, results, migration = chaos_run ~seed:1234 () in
  Alcotest.(check int) "all three jobs reported" 3 (List.length results);
  List.iter
    (fun (i, ok) ->
      Alcotest.(check bool) (Printf.sprintf "job %d succeeded" i) true ok)
    results;
  Alcotest.(check bool)
    ("migration resolved cleanly: " ^ migration)
    true
    (migration = "migrated+completed" || migration = "rolled back+completed");
  (* No leaked kernel state anywhere once the dust settles. *)
  List.iter
    (fun w ->
      let k = w.Cluster.ws_kernel in
      let name = Kernel.host_name k in
      Alcotest.(check int) (name ^ ": reservations") 0
        (Kernel.reservation_count k);
      Alcotest.(check int) (name ^ ": forwards") 0 (Kernel.forward_count k);
      Alcotest.(check int) (name ^ ": orphan guests") 0 (Kernel.guest_count k))
    (Cluster.workstations cl)

let test_chaos_deterministic () =
  let fingerprint seed =
    let cl, results, migration = chaos_run ~seed () in
    let stats =
      List.map
        (fun w -> List.map (Kernel.count w.Cluster.ws_kernel) Kernel.counters)
        (Cluster.workstations cl)
    in
    let injected =
      match Cluster.faults cl with Some f -> Faults.injected f | None -> -1
    in
    ( Engine.events_fired (Cluster.engine cl),
      stats,
      injected,
      List.sort compare results,
      migration )
  in
  let a = fingerprint 555 and b = fingerprint 555 in
  Alcotest.(check bool) "identical chaos runs" true (a = b);
  let c = fingerprint 556 in
  Alcotest.(check bool) "different seed diverges" true (a <> c)

(* The directory's residency index against the scan it replaced, checked
   at every trace event of the chaos run: a crash mid-migration, a
   reboot, lost frames and rollbacks must never leave the two apart. *)
let test_chaos_directory_index () =
  let checks = ref 0 and mismatches = ref 0 in
  let watch cl =
    let dir = Cluster.directory cl in
    let kernels = Directory.kernels dir in
    let seen = Hashtbl.create 64 in
    let tracer = Cluster.tracer cl in
    Tracer.set_enabled tracer true;
    Tracer.on_event tracer (fun _ ->
        List.iter
          (fun k ->
            List.iter
              (fun lh -> Hashtbl.replace seen (Logical_host.id lh) ())
              (Kernel.logical_hosts k))
          kernels;
        Hashtbl.iter
          (fun id () ->
            incr checks;
            let scanned =
              List.find_opt (fun k -> Kernel.find_lh k id <> None) kernels
            in
            match (Directory.locate dir id, scanned) with
            | Some a, Some b when a == b -> ()
            | None, None -> ()
            | _ -> incr mismatches)
          seen)
  in
  ignore (chaos_run ~watch ~seed:1234 ());
  Alcotest.(check bool) "checked" true (!checks > 0);
  Alcotest.(check int) "index = scan at every event" 0 !mismatches

let () =
  Alcotest.run "v_faults"
    [
      ( "plan",
        [
          Alcotest.test_case "parse" `Quick test_parse_plan;
          Alcotest.test_case "parse partition/slow" `Quick
            test_parse_partition_slow;
          Alcotest.test_case "parse flaky/crashrack" `Quick
            test_parse_flaky_crashrack;
          Alcotest.test_case "parse rejects garbage" `Quick
            test_parse_rejects_garbage;
          Alcotest.test_case "rejections are actionable" `Quick
            test_rejections_are_actionable;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
          Alcotest.test_case "validated against cluster" `Quick
            test_plan_validated_against_cluster;
        ] );
      ( "reservation-ttl",
        [
          Alcotest.test_case "expires untouched" `Quick
            test_reservation_expires_when_untouched;
          Alcotest.test_case "disabled by zero ttl" `Quick
            test_reservation_ttl_disabled;
          Alcotest.test_case "healthy migration never expires" `Quick
            test_healthy_migration_never_expires;
          Alcotest.test_case "source crash releases" `Quick
            test_source_crash_releases_reservation;
        ] );
      ( "dest-crash",
        [
          Alcotest.test_case "at round 1" `Quick (test_dest_crash_at_round 1);
          Alcotest.test_case "at round 2" `Quick (test_dest_crash_at_round 2);
          Alcotest.test_case "at round 3" `Quick (test_dest_crash_at_round 3);
          Alcotest.test_case "retry reselects" `Quick
            test_retry_reselects_excluding_failed;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "reexec on crash" `Quick test_reexec_on_host_crash;
          Alcotest.test_case "partition heals" `Quick
            test_partition_window_heals;
          Alcotest.test_case "crash/reboot cycle" `Quick
            test_crash_reboot_cycle;
          Alcotest.test_case "slow host" `Quick test_slow_host_stretches_run;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "everyone answered" `Quick
            test_chaos_everyone_answered;
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "directory index = scan" `Quick
            test_chaos_directory_index;
        ] );
    ]
