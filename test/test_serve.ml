(* Tests for the sustained-traffic service layer: admission control
   (slot cap, bounded waiting room, rejection), per-seed determinism of
   the metrics JSON, request-count conservation, and the balancer
   surviving a crash of the host it is busy rebalancing. *)

let sec = Time.of_sec
let ms = Time.of_ms

let conserved (m : Serve.Session.metrics) =
  (* Every submit resolves to exactly one of these — except requests
     still parked in the admission queue when the horizon ends. *)
  m.Serve.Session.m_rejected + m.Serve.Session.m_shed
  + m.Serve.Session.m_refused + m.Serve.Session.m_completed
  + m.Serve.Session.m_failed
  <= m.Serve.Session.m_submitted

(* {1 Admission control} *)

(* Twelve simultaneous arrivals against 2 slots + a 3-deep waiting room:
   two dispatch, three queue, seven bounce off the full room. *)
let test_admission_rejects_beyond_queue () =
  let cl = Cluster.create ~seed:11 ~workstations:4 () in
  let params =
    {
      Serve.Session.default_params with
      Serve.Session.arrivals =
        Serve.Session.Trace (List.init 12 (fun _ -> ms 1.));
      duration = sec 5.;
      progs = [ "cc68" ];
      max_in_flight = 2;
      queue_limit = 3;
      balancer_interval = None;
      snapshot_every = None;
    }
  in
  let s = Serve.Session.create ~params cl in
  Serve.Session.drain s;
  let m = Serve.Session.metrics s in
  Alcotest.(check int) "all arrivals submitted" 12 m.Serve.Session.m_submitted;
  Alcotest.(check int) "overflow rejected" 7 m.Serve.Session.m_rejected;
  Alcotest.(check int)
    "admitted requests all completed" 5 m.Serve.Session.m_completed;
  Alcotest.(check bool)
    "queue waits recorded" true
    (Stats.Summary.count m.Serve.Session.m_queue_wait_ms = 5);
  Alcotest.(check bool)
    "queued requests actually waited" true
    (Stats.Summary.max m.Serve.Session.m_queue_wait_ms > 0.);
  Alcotest.(check bool) "conservation" true (conserved m)

(* {1 Determinism} *)

(* The acceptance bar for [vsim serve -j]: the full metrics document —
   percentiles, gauges, histogram, snapshots — must be byte-identical
   across runs of the same seed. *)
let test_same_seed_same_metrics_json () =
  let run () =
    let cl = Cluster.create ~seed:7 ~workstations:8 () in
    let params =
      {
        Serve.Session.default_params with
        Serve.Session.arrivals = Serve.Session.Poisson 2.5;
        duration = sec 20.;
        balancer_interval = Some (sec 3.);
        snapshot_every = Some (sec 5.);
      }
    in
    let s = Serve.Session.create ~params cl in
    Serve.Session.drain s;
    Json_min.to_compact_string (Serve.Session.metrics_to_json s)
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical metrics JSON" a b;
  Alcotest.(check bool) "non-trivial run" true
    (String.length a > 200 && String.length b > 200)

let test_metrics_accounting () =
  let cl = Cluster.create ~seed:3 ~workstations:8 () in
  let params =
    {
      Serve.Session.default_params with
      Serve.Session.arrivals = Serve.Session.Poisson 2.;
      duration = sec 20.;
      (* Low enough that every dispatched request finds a volunteer. *)
      max_in_flight = 6;
    }
  in
  let s = Serve.Session.create ~params cl in
  Serve.Session.drain s;
  let m = Serve.Session.metrics s in
  Alcotest.(check bool) "some traffic" true (m.Serve.Session.m_submitted > 10);
  Alcotest.(check int)
    "admission cap prevents volunteer refusals" 0 m.Serve.Session.m_refused;
  Alcotest.(check int) "no faults, no failures" 0 m.Serve.Session.m_failed;
  Alcotest.(check bool)
    "most requests completed" true
    (m.Serve.Session.m_completed > 30);
  Alcotest.(check bool) "conservation" true (conserved m);
  Alcotest.(check bool)
    "throughput positive" true
    (m.Serve.Session.m_throughput_per_sec > 0.);
  Alcotest.(check bool)
    "balancer surveyed" true
    (m.Serve.Session.m_balancer_surveys > 0)

(* {1 Balancer vs. crash} *)

(* Regression for the skip-and-continue fix: load up ws2 so the balancer
   picks it as busiest, then crash it (no reboot) mid-run. The daemon
   must keep surveying on its cycle — a wedge would freeze the survey
   counter near the crash instant — and the session must still drain. *)
let test_balancer_survives_busiest_host_crash () =
  let faults =
    match Faults.parse "crash:ws2@10" with
    | Ok plan -> plan
    | Error e -> Alcotest.failf "faults: %s" e
  in
  let cl = Cluster.create ~seed:5 ~workstations:6 ~faults () in
  (* Pile long-running guests onto the victim before arrivals start. *)
  ignore
    (Cluster.shell cl ~ws:0 ~name:"loader" (fun ctx ->
         for _ = 1 to 3 do
           match
             Remote_exec.exec ctx ~prog:"tex" ~target:(Remote_exec.Named "ws2")
           with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "preload: %s" e
         done));
  let params =
    {
      Serve.Session.default_params with
      Serve.Session.arrivals = Serve.Session.Poisson 1.5;
      duration = sec 30.;
      balancer_interval = Some (sec 2.);
      snapshot_every = None;
      drain_grace = sec 30.;
    }
  in
  let s = Serve.Session.create ~params cl in
  Serve.Session.drain s;
  let m = Serve.Session.metrics s in
  (* 60 s of virtual time at a 2 s cycle: a daemon that died with its
     target would stop around survey #5. *)
  Alcotest.(check bool)
    "surveys continued past the crash" true
    (m.Serve.Session.m_balancer_surveys >= 20);
  Alcotest.(check bool)
    "service kept completing requests" true
    (m.Serve.Session.m_completed > 0);
  Alcotest.(check bool) "conservation" true (conserved m)

(* {1 Accounting identity under a mid-queue crash} *)

(* Crash-safe accounting: with requests parked in the admission queue
   when their submitting host dies (its shells are killed mid-queue),
   every submission must still land in exactly one terminal bucket —
   [submitted = rejected + shed + refused + completed + failed] holds
   exactly on EVERY seed, with nothing outstanding and nothing leaked
   once the drain grace is generous enough to settle all stragglers. *)
let test_accounting_identity_under_crash () =
  let total_shed = ref 0 and total_failed = ref 0 in
  List.iter
    (fun seed ->
      let faults =
        match Faults.parse "crash:ws2@8" with
        | Ok plan -> plan
        | Error e -> Alcotest.failf "faults: %s" e
      in
      let cl = Cluster.create ~seed ~workstations:5 ~faults () in
      ignore (Cluster.enable_health cl);
      let params =
        {
          Serve.Session.default_params with
          Serve.Session.arrivals = Serve.Session.Poisson 2.;
          duration = sec 15.;
          (* Tight caps keep a queue standing when ws2 dies at t=8. *)
          max_in_flight = 2;
          queue_limit = 6;
          balancer_interval = Some (sec 2.);
          snapshot_every = None;
          reexec_attempts = 2;
          reexec_budget = Some 8;
          slo_shed_multiple = Some 1.;
          drain_grace = sec 300.;
        }
      in
      let s = Serve.Session.create ~params cl in
      Serve.Session.drain s;
      let m = Serve.Session.metrics s in
      total_shed := !total_shed + m.Serve.Session.m_shed;
      total_failed := !total_failed + m.Serve.Session.m_failed;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: all stragglers settled" seed)
        0 m.Serve.Session.m_outstanding;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: nothing leaked" seed)
        0 m.Serve.Session.m_stuck;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: submitted = terminal buckets" seed)
        m.Serve.Session.m_submitted
        (m.Serve.Session.m_rejected + m.Serve.Session.m_shed
        + m.Serve.Session.m_refused + m.Serve.Session.m_completed
        + m.Serve.Session.m_failed))
    (List.init 10 (fun i -> i + 1));
  (* The fault plan and brownout must actually bite somewhere in the
     seed sweep, or the identity was never under pressure. *)
  Alcotest.(check bool) "brownout shed across the sweep" true (!total_shed > 0);
  Alcotest.(check bool)
    "the crash failed requests across the sweep" true (!total_failed > 0)

let () =
  Alcotest.run "serve"
    [
      ( "admission",
        [
          Alcotest.test_case "cap + bounded queue + rejection" `Quick
            test_admission_rejects_beyond_queue;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, byte-identical metrics JSON" `Quick
            test_same_seed_same_metrics_json;
          Alcotest.test_case "accounting on a healthy cluster" `Quick
            test_metrics_accounting;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "survives busiest-host crash mid-cycle" `Slow
            test_balancer_survives_busiest_host_crash;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "identity on every seed under mid-queue crash"
            `Slow test_accounting_identity_under_crash;
        ] );
    ]
