(* Tests for the fault-injection subsystem and the crash/loss recovery
   hardening it exercises: plan parsing, reservation TTL, destination
   crashes at every pre-copy round, budget aborts at each cleanup stage,
   retry-with-reselection, re-execution, partition/reboot behaviour, and
   determinism under chaos. *)

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
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
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
             ignore (Remote_exec.migrate_program ~pm:h.Remote_exec.h_pm ctx h)));
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

(* Run a tex migration off ws1 with the workstations in [accepting]
   willing, after [arm cl] has set up the destination's killer. Returns
   (migration result, wait result, source free-memory before/after, the
   cluster). *)
let crash_dest_run ~cfg ~seed ~accepting ~arm () =
  let cl = Cluster.create ~seed ~workstations:4 ~trace:true ~cfg () in
  let eng = Cluster.engine cl in
  List.iteri
    (fun i w -> Program_manager.set_accepting w.Cluster.ws_pm (i = 1))
    (Cluster.workstations cl);
  let migration = ref (Error "did not run") in
  let wait_result = ref (Error "did not run") in
  let free_before = ref 0 and free_after = ref 0 in
  arm cl;
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h ->
             List.iteri
               (fun i w ->
                 Program_manager.set_accepting w.Cluster.ws_pm
                   (List.mem i accepting))
               (Cluster.workstations cl);
             Proc.sleep eng (sec 3.);
             let src = (Cluster.workstation cl 1).Cluster.ws_kernel in
             free_before := Kernel.memory_free src;
             migration :=
               (match
                  Remote_exec.migrate_program ~pm:h.Remote_exec.h_pm ctx h
                with
               | Ok o -> Ok o.Protocol.m_dest
               | Error e -> Error (Remote_exec.migrate_error_message e));
             free_after := Kernel.memory_free src;
             wait_result := Remote_exec.wait ctx h));
  Cluster.run cl ~until:(sec 120.);
  (!migration, !wait_result, (!free_before, !free_after), cl)

(* ws2 is the only destination and dies once its kernel server has
   answered [round] copy-round pings. Returns what [crash_dest_run]
   does, with ws2's kernel in place of the cluster. *)
let crash_dest_at_round ~round =
  let arm cl =
    let eng = Cluster.engine cl in
    let dest = (Cluster.workstation cl 2).Cluster.ws_kernel in
    (* Watchdog: kill the destination the instant ping [round] is
       answered (its reply is already on the wire, so the source sees
       the round acknowledged and starts the next step). *)
    ignore
      (Proc.spawn eng (fun () ->
           while Kernel.count dest Kernel.Ks_pings < round do
             Proc.sleep eng (ms 5.)
           done;
           Kernel.shutdown dest))
  in
  let migration, wait_result, free, cl =
    crash_dest_run ~cfg:Config.default ~seed:(40 + round) ~accepting:[ 2 ] ~arm
      ()
  in
  (migration, wait_result, free, (Cluster.workstation cl 2).Cluster.ws_kernel)

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

(* The destination dies at the instant the logical host freezes, with
   content caching on: the frozen residue's manifest exchange is the
   send that fails. That is a transfer failure, not a blown budget —
   no budget is declared — so the paper's single attempt stands: one
   [Mig_start], and the program completes at the source even though the
   other willing host would have accepted a second attempt. *)
let test_dest_crash_while_frozen () =
  let cfg =
    {
      Config.default with
      Config.os =
        {
          Config.default.Config.os with
          Os_params.content_cache_bytes = 4 * 1024 * 1024;
        };
    }
  in
  let arm cl =
    let eng = Cluster.engine cl in
    let dest = ref None and armed = ref true in
    Tracer.keep (Cluster.tracer cl);
    Tracer.on_event (Cluster.tracer cl) (fun r ->
        match r.Tracer.ev with
        | Migration.Mig_dest { dest = d; _ } -> dest := Some d
        | Logical_host.Lh_frozen { host = "ws1"; _ } when !armed ->
            armed := false;
            let victim =
              (Option.get (Cluster.find_workstation cl (Option.get !dest)))
                .Cluster.ws_kernel
            in
            ignore
              (Engine.schedule eng ~at:r.Tracer.at (fun () ->
                   Kernel.shutdown victim))
        | _ -> ())
  in
  let migration, wait_result, (free_before, free_after), cl =
    crash_dest_run ~cfg ~seed:31 ~accepting:[ 2; 3 ] ~arm ()
  in
  (match migration with
  | Error e ->
      Alcotest.(check bool)
        ("a transfer failure: " ^ e)
        true
        (String.starts_with ~prefix:"transfer failed" e)
  | Ok d -> Alcotest.failf "migration claimed success to %s" d);
  let starts =
    List.length
      (List.filter
         (fun (r : Tracer.record) ->
           match r.Tracer.ev with Migration.Mig_start _ -> true | _ -> false)
         (Tracer.records (Cluster.tracer cl)))
  in
  Alcotest.(check int) "one attempt" 1 starts;
  (match wait_result with
  | Ok (_, cpu) ->
      Alcotest.(check bool) "full cpu at the source" true
        (Float.abs (Time.to_sec cpu -. 30.) < 0.1)
  | Error e -> Alcotest.failf "program lost after rollback: %s" e);
  Alcotest.(check int) "source memory restored" free_before free_after

(* {1 Budget aborts, one per cleanup stage}

   Under the default deadline budgets, every way an attempt gives up
   must leave the cluster as it found it: at the [Mig_aborted] instant
   the tried destination holds no reservation and the source's free
   memory is back to its pre-migration value, and the program still
   completes — at the source, or at the host the one budget reselection
   picked. tex runs on ws1 with ws2 and ws3 willing; the fault plan
   decides where the attempt dies. *)

type budget_run = {
  b_migration : (string, string) result;
      (* The committed destination, or the error message. *)
  b_aborts : (string * string * int * int) list;
      (* Per [Mig_aborted]: tried destination, reason, then the source's
         free memory and the destination's reservation count at that
         instant. *)
  b_free_before : int;
  b_cpu : (float, string) result;  (* The program's CPU seconds at exit. *)
  b_cl : Cluster.t;
}

let budget_run ~seed faults =
  let cfg = Config.with_default_budgets Config.default in
  let cl = Cluster.create ~seed ~workstations:4 ~trace:true ~cfg ~faults () in
  let eng = Cluster.engine cl in
  let kernel i = (Cluster.workstation cl i).Cluster.ws_kernel in
  let kernel_of host =
    (Option.get (Cluster.find_workstation cl host)).Cluster.ws_kernel
  in
  List.iteri
    (fun i w -> Program_manager.set_accepting w.Cluster.ws_pm (i = 1))
    (Cluster.workstations cl);
  let dest = ref "" and aborts = ref [] in
  Tracer.on_event (Cluster.tracer cl) (fun r ->
      match r.Tracer.ev with
      | Migration.Mig_dest { dest = d; _ } -> dest := d
      | Migration.Mig_aborted { reason; _ } ->
          aborts :=
            ( !dest,
              reason,
              Kernel.memory_free (kernel 1),
              Kernel.reservation_count (kernel_of !dest) )
            :: !aborts
      | _ -> ());
  let migration = ref (Error "did not run") and cpu = ref (Error "did not run") in
  let free_before = ref 0 in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"tex" ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h ->
             List.iteri
               (fun i w ->
                 Program_manager.set_accepting w.Cluster.ws_pm (i >= 2))
               (Cluster.workstations cl);
             Proc.sleep eng (sec 3.);
             free_before := Kernel.memory_free (kernel 1);
             migration :=
               (match
                  Remote_exec.migrate_program ~pm:h.Remote_exec.h_pm ctx h
                with
               | Ok o -> Ok o.Protocol.m_dest
               | Error e -> Error (Remote_exec.migrate_error_message e));
             cpu :=
               Result.map
                 (fun (_, c) -> Time.to_sec c)
                 (Remote_exec.wait ctx h)));
  Cluster.run cl ~until:(sec 120.);
  {
    b_migration = !migration;
    b_aborts = List.rev !aborts;
    b_free_before = !free_before;
    b_cpu = !cpu;
    b_cl = cl;
  }

(* A cluster-wide loss window. The windows below are placed on the
   unfaulted run at seed 31: tex's round 2 runs 6.00–6.37 s, the freeze
   starts at 6.38 s, and the residue and kernel state are copied by
   6.68 s, when the logical host is extracted. The freeze deadline is
   600 ms after the freeze starts. *)
let loss p start stop =
  Faults.Loss_window { p; start = sec start; stop = sec stop }

let check_budget_abort ~name ~reason ~migration ~reserved_at_abort r =
  (match r.b_aborts with
  | [ (dest, why, free, reserved) ] ->
      Alcotest.(check string) (name ^ ": first destination") "ws3" dest;
      Alcotest.(check string) (name ^ ": abort reason") reason why;
      Alcotest.(check int)
        (name ^ ": source memory restored at the abort")
        r.b_free_before free;
      Alcotest.(check int)
        (name ^ ": reservations at the abort")
        reserved_at_abort reserved
  | l -> Alcotest.failf "%s: %d aborts, expected one" name (List.length l));
  Alcotest.(check (result string string)) (name ^ ": outcome") migration
    r.b_migration;
  (match r.b_cpu with
  | Ok cpu ->
      Alcotest.(check bool) (name ^ ": program completed") true
        (Float.abs (cpu -. 30.) < 0.1)
  | Error e -> Alcotest.failf "%s: program lost: %s" name e);
  let ws3 =
    (Option.get (Cluster.find_workstation r.b_cl "ws3")).Cluster.ws_kernel
  in
  Alcotest.(check int) (name ^ ": no reservation left") 0
    (Kernel.reservation_count ws3);
  ws3

(* (a) Before the freeze: frame loss through round 2 slows the observed
   copy rate until the residue is predicted to blow the freeze budget.
   The pre-freeze gate drops the reservation, and the one budget
   reselection lands on ws2. *)
let test_budget_abort_before_freeze () =
  let r = budget_run ~seed:31 [ loss 0.6 6.0 6.6 ] in
  let ws3 =
    check_budget_abort ~name:"pre-freeze gate"
      ~reason:"budget exceeded: estimated freeze window exceeds the budget"
      ~migration:(Ok "ws2") ~reserved_at_abort:0 r
  in
  Alcotest.(check int) "cancelled, not expired" 0
    (Kernel.count ws3 Kernel.Reservations_expired)

(* (b) While frozen: loss from the freeze on stretches the residue copy,
   so the window is past its deadline once the kernel state has been
   copied. The source unfreezes, cancels, and reselects onto ws2. *)
let test_budget_abort_while_frozen () =
  let r = budget_run ~seed:31 [ loss 0.7 6.381 7.2 ] in
  let ws3 =
    check_budget_abort ~name:"frozen"
      ~reason:"budget exceeded: freeze budget exhausted copying kernel state"
      ~migration:(Ok "ws2") ~reserved_at_abort:0 r
  in
  Alcotest.(check int) "cancelled, not expired" 0
    (Kernel.count ws3 Kernel.Reservations_expired)

(* (c) After extract: every frame is lost from just before the extract
   until past the acknowledgement deadline, so the install never
   arrives. The source re-installs and unfreezes, and a transfer
   failure is not retried. The install never reached ws3, so its
   reservation lives until the lease runs out. *)
let test_budget_abort_after_extract () =
  let r = budget_run ~seed:31 [ loss 1.0 6.67 7.2 ] in
  let ws3 =
    check_budget_abort ~name:"install"
      ~reason:"transfer failed: no acknowledgement of install"
      ~migration:(Error "transfer failed: no acknowledgement of install")
      ~reserved_at_abort:1 r
  in
  Alcotest.(check int) "released by the lease" 1
    (Kernel.count ws3 Kernel.Reservations_expired);
  Alcotest.(check int) "never installed at ws3" 0 (Kernel.guest_count ws3)

(* {1 The root exits mid-migration}

   After a migration the old host holds nothing the program needs
   (Section 3.3), and that must hold when the program ends while its
   host is moving, too. tex runs on ws1 with ws2 the only volunteer and
   a waiter blocked on its completion; the root process is killed at one
   protocol point of the migration — the first pre-copy round's
   acknowledgement, the freeze, the extract (so the reaper wakes after
   the install), or the install at the destination. Once the run
   settles, no guest logical host is resident anywhere, the waiter got
   the program's exit, and the record is finished and owned by no
   manager. *)

type exit_point = First_round | Frozen | Extracted | Installed

let test_root_exits_mid_migration strategy point () =
  let cl = Cluster.create ~seed:31 ~workstations:4 ~trace:true () in
  let eng = Cluster.engine cl in
  let pm_of host =
    (Option.get (Cluster.find_workstation cl host)).Cluster.ws_pm
  in
  let accepting_only j =
    List.iteri
      (fun i w -> Program_manager.set_accepting w.Cluster.ws_pm (i = j))
      (Cluster.workstations cl)
  in
  accepting_only 1;
  let program = ref None and source = ref "" and killed = ref false in
  let kill () =
    if not !killed then begin
      killed := true;
      Engine.post_after eng Time.zero (fun () ->
          Option.iter (fun p -> Vproc.kill p.Progtable.p_root) !program)
    end
  in
  Tracer.on_event (Cluster.tracer cl) (fun r ->
      match (r.Tracer.ev, point) with
      | Migration.Mig_start { lh; from_host; _ }, _ ->
          source := from_host;
          program := Progtable.find (Program_manager.table (pm_of from_host)) lh
      | Migration.Mig_round { round = 1; _ }, First_round
      | Logical_host.Lh_frozen _, Frozen
      | Logical_host.Lh_extracted _, Extracted ->
          kill ()
      | Logical_host.Lh_installed { host; _ }, Installed when host <> !source ->
          kill ()
      | _ -> ());
  let waited = ref (Error "did not wait") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"tex" ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h ->
             accepting_only 2;
             ignore
               (Cluster.shell cl ~ws:0 ~name:"waiter" (fun ctx ->
                    waited := Remote_exec.wait ctx h));
             Proc.sleep eng (sec 3.);
             ignore
               (Remote_exec.migrate_program ~strategy ~pm:h.Remote_exec.h_pm
                  ctx h)));
  Cluster.run cl ~until:(sec 60.);
  Alcotest.(check bool) "root killed" true !killed;
  let p = Option.get !program in
  let id = Logical_host.id p.Progtable.p_lh in
  List.iter
    (fun w ->
      let k = w.Cluster.ws_kernel in
      List.iter
        (fun lh ->
          if Logical_host.priority lh = Cpu.Background then
            Alcotest.failf "guest lh-%d still resident on %s"
              (Logical_host.id lh) (Kernel.host_name k))
        (Kernel.logical_hosts k);
      if Progtable.find (Program_manager.table w.Cluster.ws_pm) id <> None then
        Alcotest.failf "%s still owns the record" (Kernel.host_name k))
    (Cluster.workstations cl);
  (match !waited with
  | Error "program failed" -> ()
  | Ok _ -> Alcotest.fail "the waiter saw a clean exit"
  | Error e -> Alcotest.failf "the waiter got no exit: %s" e);
  Alcotest.(check bool) "record finished" true
    (match p.Progtable.p_status with Progtable.Done _ -> true | _ -> false)

(* The source crashes the instant ws2 installs the migrating host, so
   the install's acknowledgement never comes back; under a budget the
   source stops waiting at the freeze deadline. The abort path must not
   re-install the host on the dead kernel: the directory prefers ws1 to
   ws2, so that copy would capture the program, which must instead
   finish at ws2. *)
let test_source_crash_before_install_ack () =
  let cfg = Config.with_default_budgets Config.default in
  let cl = Cluster.create ~seed:31 ~workstations:4 ~trace:true ~cfg () in
  let eng = Cluster.engine cl in
  let k1 = (Cluster.workstation cl 1).Cluster.ws_kernel in
  let accepting_only j =
    List.iteri
      (fun i w -> Program_manager.set_accepting w.Cluster.ws_pm (i = j))
      (Cluster.workstations cl)
  in
  accepting_only 1;
  let program = ref None in
  Tracer.on_event (Cluster.tracer cl) (fun r ->
      match r.Tracer.ev with
      | Migration.Mig_start { lh; _ } ->
          program :=
            Progtable.find
              (Program_manager.table (Cluster.workstation cl 1).Cluster.ws_pm)
              lh
      | Logical_host.Lh_installed { host = "ws2"; _ } ->
          Engine.post_after eng Time.zero (fun () -> Kernel.shutdown k1)
      | _ -> ());
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"tex" ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h ->
             accepting_only 2;
             Proc.sleep eng (sec 3.);
             ignore
               (Remote_exec.migrate_program ~pm:h.Remote_exec.h_pm ctx h)));
  Cluster.run cl ~until:(sec 90.);
  Alcotest.(check bool) "source crashed" false (Kernel.running k1);
  Alcotest.(check (list int)) "no copy on the dead source" []
    (List.map Logical_host.id
       (List.filter
          (fun lh -> Logical_host.priority lh = Cpu.Background)
          (Kernel.logical_hosts k1)));
  match !program with
  | Some { Progtable.p_status = Progtable.Done { failed = false; _ }; _ } -> ()
  | Some _ -> Alcotest.fail "the program did not finish at ws2"
  | None -> Alcotest.fail "no migration started"

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
    (Proc.spawn eng (fun () ->
         while Kernel.count dest Kernel.Ks_pings < 1 do
           Proc.sleep eng (ms 5.)
         done;
         Kernel.shutdown dest;
         Program_manager.set_accepting
           (Cluster.workstation cl 3).Cluster.ws_pm true));
  let outcome = ref (Error "did not run") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
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
             match Remote_exec.migrate_program ~pm:h.Remote_exec.h_pm ctx h with
             | Ok o -> outcome := Ok o.Protocol.m_dest
             | Error e -> outcome := Error (Remote_exec.migrate_error_message e))));
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

(* {1 Retransmission schedule}

   A send to a crashed host. The request goes out, then is retransmitted
   at an interval that doubles from 100 ms up to the 800 ms cap. After
   three unanswered retransmissions the sender drops its binding and
   broadcasts [Where_is] instead, on the same schedule. Once nothing has
   been heard for [give_up_after] (5 s) the send fails with
   [No_response]. *)

let test_retransmit_schedule_to_crashed_host () =
  let cl =
    Cluster.create ~seed:5 ~workstations:2 ~trace:true
      ~faults:[ Faults.Crash_host { host = "ws1"; at = sec 1. } ]
      ()
  in
  Tracer.keep (Cluster.tracer cl);
  let eng = Cluster.engine cl in
  let k0 = (Cluster.workstation cl 0).Cluster.ws_kernel
  and k1 = (Cluster.workstation cl 1).Cluster.ws_kernel in
  let target = Ids.kernel_server_of (Logical_host.id (Kernel.host_lh k1)) in
  let warm = ref false and sent_at = ref Time.zero in
  let result = ref None and failed_at = ref Time.zero in
  ignore
    (Cluster.user cl ~ws:0 ~name:"pinger" (fun _ self ->
         let ping () =
           Kernel.send k0 ~src:self ~dst:target (Message.make Kernel.Ks_ping)
         in
         (* Answered before the crash: ws0 now holds a binding for ws1. *)
         warm := Result.is_ok (ping ());
         Proc.sleep eng (sec 2.);
         sent_at := Engine.now eng;
         result := Some (ping ());
         failed_at := Engine.now eng));
  Cluster.run cl ~until:(sec 20.);
  Alcotest.(check bool) "warm-up ping answered" true !warm;
  (match !result with
  | Some (Error Kernel.No_response) -> ()
  | Some (Ok _) -> Alcotest.fail "a crashed host answered"
  | None -> Alcotest.fail "the send never returned");
  let ws0 = Kernel.station k0 in
  let attempts =
    List.filter_map
      (fun (r : Tracer.record) ->
        match r.Tracer.ev with
        | Ethernet.Frame_sent { src; dst; _ }
          when Addr.equal src ws0 && Time.(r.Tracer.at >= !sent_at) ->
            let kind =
              match dst with Frame.Broadcast -> "where-is" | _ -> "request"
            in
            Some (r.Tracer.at, kind)
        | _ -> None)
      (Tracer.records (Cluster.tracer cl))
  in
  let first = match attempts with (t, _) :: _ -> t | [] -> !sent_at in
  let offset_ms t = Time.to_us (Time.sub t first) / 1000 in
  Alcotest.(check (list (pair int string)))
    "attempt instants (ms after the first) and kinds"
    [
      (0, "request");
      (100, "request");
      (300, "request");
      (700, "request");
      (1500, "where-is");
      (2300, "where-is");
      (3100, "where-is");
      (3900, "where-is");
      (4700, "where-is");
    ]
    (List.map (fun (t, kind) -> (offset_ms t, kind)) attempts);
  (* The attempt after the last one above would fall 5.5 s after the
     first; by then 5 s have passed since the send began, so it gives
     up instead of transmitting. *)
  Alcotest.(check int) "gave up at the next attempt instant" 5500
    (offset_ms !failed_at);
  let give_up = Os_params.default.Os_params.give_up_after in
  Alcotest.(check bool) "not before give_up_after" true
    Time.(Time.sub !failed_at !sent_at > give_up)

(* {1 Failure detector}

   A workstation crashes and later reboots with the detector on. Its
   view goes Alive -> Suspect -> Dead -> Alive, each step within what
   the detector constants allow: probes every [probe_interval], a miss
   known at most [max_timeout] after its probe starts, [suspect_after]
   and [dead_after] consecutive misses, [recover_after] consecutive
   hits. *)

let test_health_crash_reboot_transitions () =
  let crash_at = sec 3. and reboot_at = sec 12. in
  let cl =
    Cluster.create ~seed:17 ~workstations:3 ~trace:true
      ~faults:
        [
          Faults.Crash_host { host = "ws1"; at = crash_at };
          Faults.Reboot_host { host = "ws1"; at = reboot_at };
        ]
      ()
  in
  Tracer.keep (Cluster.tracer cl);
  let h = Cluster.enable_health cl in
  Cluster.run cl ~until:(sec 25.);
  let moves =
    List.filter_map
      (fun (r : Tracer.record) ->
        match r.Tracer.ev with
        | Health.Health_transition { peer; from_; to_; _ } ->
            Some (peer, r.Tracer.at, from_, to_)
        | _ -> None)
      (Tracer.records (Cluster.tracer cl))
  in
  let name (peer, _, from_, to_) =
    Printf.sprintf "%s %s->%s" peer (Health.state_name from_)
      (Health.state_name to_)
  in
  Alcotest.(check (list string))
    "only ws1 moves, through every state"
    [ "ws1 alive->suspect"; "ws1 suspect->dead"; "ws1 dead->alive" ]
    (List.map name moves);
  let at i = match List.nth moves i with _, t, _, _ -> t in
  let suspect = at 0 and dead = at 1 and alive = at 2 in
  (* A probe round takes at most one interval plus one timeout. *)
  let round = Time.add Health.probe_interval Health.max_timeout in
  let within what lo hi t =
    if Time.(t < lo || t > hi) then
      Alcotest.failf "%s at %a, outside [%a, %a]" what Time.pp t Time.pp lo
        Time.pp hi
  in
  within "suspect" crash_at
    (Time.add crash_at (Time.mul round Health.suspect_after))
    suspect;
  (* Each further miss needs a fresh probe, a full interval later. *)
  within "dead"
    (Time.add suspect
       (Time.mul Health.probe_interval
          (Health.dead_after - Health.suspect_after)))
    (Time.add crash_at (Time.mul round Health.dead_after))
    dead;
  Alcotest.(check bool) "dead before the reboot" true Time.(dead < reboot_at);
  (* Recovery needs [recover_after] answered probes, an interval apart;
     the first probe after the reboot may still miss while the observer
     rebinds through [Where_is]. *)
  within "alive"
    (Time.add reboot_at
       (Time.mul Health.probe_interval (Health.recover_after - 1)))
    (Time.add reboot_at (Time.mul round (Health.recover_after + 1)))
    alive;
  Alcotest.(check int) "a confirmed death is no false suspicion" 0
    (Health.false_suspicions h);
  Alcotest.(check (list string))
    "nobody dead at the end" [] (Health.dead_hosts h)

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
    (Cluster.shell cl ~ws:0 ~name:"migrator" (fun ctx ->
         match
           Remote_exec.exec ctx ~prog:"tex"
             ~target:(Remote_exec.Named "ws1")
         with
         | Error e -> migration := "exec: " ^ e
         | Ok h -> (
             Proc.sleep eng (sec 3.);
             match Remote_exec.migrate_program ~pm:h.Remote_exec.h_pm ctx h with
             | Ok _ -> (
                 migration := "migrated";
                 match Remote_exec.wait ctx h with
                 | Ok _ -> migration := "migrated+completed"
                 | Error e -> migration := "migrated but lost: " ^ e)
             | Error (Remote_exec.Refused _) -> (
                 migration := "rolled back";
                 match Remote_exec.wait ctx h with
                 | Ok _ -> migration := "rolled back+completed"
                 | Error e -> migration := "rolled back but lost: " ^ e)
             | Error (Remote_exec.No_answer e) -> migration := e)));
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
          Alcotest.test_case "while frozen, caches on" `Quick
            test_dest_crash_while_frozen;
          Alcotest.test_case "retry reselects" `Quick
            test_retry_reselects_excluding_failed;
        ] );
      ( "budget-abort",
        [
          Alcotest.test_case "before the freeze" `Quick
            test_budget_abort_before_freeze;
          Alcotest.test_case "while frozen" `Quick
            test_budget_abort_while_frozen;
          Alcotest.test_case "after extract" `Quick
            test_budget_abort_after_extract;
        ] );
      ( "root-exit",
        List.concat_map
          (fun (name, strategy, points) ->
            List.map
              (fun (pname, point) ->
                Alcotest.test_case
                  (Printf.sprintf "%s, %s" name pname)
                  `Quick
                  (test_root_exits_mid_migration strategy point))
              points)
          [
            ( "pre-copy",
              Protocol.Precopy,
              [ ("first round", First_round); ("frozen", Frozen);
                ("extracted", Extracted); ("installed", Installed) ] );
            ( "freeze-and-copy",
              Protocol.Freeze_and_copy,
              [ ("frozen", Frozen); ("extracted", Extracted);
                ("installed", Installed) ] );
            ( "copy-on-reference",
              Protocol.Copy_on_reference,
              [ ("frozen", Frozen); ("extracted", Extracted);
                ("installed", Installed) ] );
          ] );
      ( "recovery",
        [
          Alcotest.test_case "reexec on crash" `Quick test_reexec_on_host_crash;
          Alcotest.test_case "partition heals" `Quick
            test_partition_window_heals;
          Alcotest.test_case "source crash before the install ack" `Quick
            test_source_crash_before_install_ack;
          Alcotest.test_case "crash/reboot cycle" `Quick
            test_crash_reboot_cycle;
          Alcotest.test_case "slow host" `Quick test_slow_host_stretches_run;
          Alcotest.test_case "retransmit schedule to a crashed host" `Quick
            test_retransmit_schedule_to_crashed_host;
          Alcotest.test_case "health crash/reboot transitions" `Quick
            test_health_crash_reboot_transitions;
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
