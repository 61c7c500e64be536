(* The domain pool (Parrun) and the cross-domain determinism contract:
   merged results are byte-identical whatever the worker count, because
   every replica is an independent seeded simulation and results merge
   in job-index order. *)

let many_jobs = max 2 (Parrun.default_jobs ())

(* {1 Pool basics} *)

let test_edges () =
  Alcotest.(check (list int)) "zero jobs" [] (Parrun.run ~jobs:4 []);
  Alcotest.(check (list int)) "one job" [ 7 ] (Parrun.run ~jobs:4 [ (fun () -> 7) ]);
  Alcotest.(check (list int))
    "more workers than jobs" [ 1; 2 ]
    (Parrun.run ~jobs:64 [ (fun () -> 1); (fun () -> 2) ]);
  Alcotest.(check (list int))
    "jobs=1 runs in order" [ 0; 1; 2; 3; 4 ]
    (Parrun.map ~jobs:1 (fun x -> x) [ 0; 1; 2; 3; 4 ])

let test_merge_order () =
  (* Results land at their job's index no matter which domain ran it. *)
  let n = 50 in
  let expect = List.init n (fun i -> i * i) in
  Alcotest.(check (list int))
    "index-ordered merge"
    expect
    (Parrun.map ~jobs:many_jobs (fun i -> i * i) (List.init n Fun.id))

exception Boom of int

let test_exception_propagation () =
  (* All jobs run; the lowest-index failure is the one re-raised, so the
     escaping exception does not depend on -j. *)
  let ran = Array.make 6 false in
  let thunks =
    List.init 6 (fun i () ->
        ran.(i) <- true;
        if i = 2 || i = 4 then raise (Boom i);
        i)
  in
  let observe jobs =
    match Parrun.run ~jobs thunks with
    | _ -> Alcotest.fail "expected an exception"
    | exception Boom i -> i
  in
  Array.fill ran 0 6 false;
  let serial = observe 1 in
  Alcotest.(check bool) "all jobs ran (j1)" true (Array.for_all Fun.id ran);
  Array.fill ran 0 6 false;
  let parallel = observe many_jobs in
  Alcotest.(check bool) "all jobs ran (jN)" true (Array.for_all Fun.id ran);
  Alcotest.(check int) "lowest-index failure, serial" 2 serial;
  Alcotest.(check int) "same failure in parallel" serial parallel

(* {1 Replica determinism across domains}

   Whole-cluster simulations are the real cargo: each job boots its own
   seeded cluster, so per-cluster id counters (processes, transactions,
   address spaces) must restart identically on whichever domain runs the
   replica. Compare fully-rendered summaries, not just headline floats,
   to catch any drift. *)

let exec_summary ~seed () =
  let cl = Cluster.create ~seed ~workstations:5 () in
  match Experiment.remote_exec cl ~prog:"cc68" () with
  | Error e -> "error: " ^ e
  | Ok r ->
      Printf.sprintf "seed=%d host=%s load=%s total=%s events=%d" seed
        r.Experiment.er_host
        (Time.to_string r.Experiment.er_load)
        (Time.to_string r.Experiment.er_total)
        (Engine.events_fired (Cluster.engine cl))

let migrate_summary ~seed () =
  let cl = Cluster.create ~seed ~workstations:4 () in
  match Experiment.migrate_program cl ~prog:"parser" () with
  | Error e -> "error: " ^ e
  | Ok o ->
      Printf.sprintf "seed=%d %s->%s rounds=%d freeze=%s events=%d" seed
        o.Protocol.m_from o.Protocol.m_dest
        (List.length o.Protocol.m_rounds)
        (Time.to_string (Protocol.freeze_span o))
        (Engine.events_fired (Cluster.engine cl))

let test_replica_determinism () =
  let jobs_list =
    Experiment.seeded_jobs ~reps:5 ~base_seed:11 (fun ~seed ->
        exec_summary ~seed ())
    @ Experiment.seeded_jobs ~reps:4 ~base_seed:30 (fun ~seed ->
        migrate_summary ~seed ())
  in
  let serial = Parrun.run ~jobs:1 jobs_list in
  let parallel = Parrun.run ~jobs:many_jobs jobs_list in
  Alcotest.(check (list string)) "j1 = jN, rendered summaries" serial parallel;
  List.iter
    (fun line ->
      Alcotest.(check bool)
        ("replica succeeded: " ^ line)
        false
        (String.length line >= 6 && String.sub line 0 6 = "error:"))
    serial

let test_dirty_rate_jobs () =
  let measure jobs =
    Experiment.dirty_rate_jobs ~base_seed:100 ~prog:"optimizer"
      ~window:(Time.of_sec 1.) ~reps:6 ()
    |> Parrun.run ~jobs
    |> List.map (function Ok kb -> kb | Error e -> Alcotest.fail e)
  in
  let serial = measure 1 in
  Alcotest.(check (list (float 0.0))) "dirty-rate replicas, j1 = jN" serial
    (measure many_jobs);
  Alcotest.(check bool)
    "measured something" true
    (List.for_all (fun kb -> kb > 0.) serial)

(* {1 Work stealing}

   Round-robin seeding and tail-stealing must never leak into results:
   output stays byte-identical for any worker count, and every job runs
   exactly once. *)

let test_stealing_no_starvation () =
  (* One elephant seeded first onto worker 0; the mice behind it must be
     stolen and completed by the other workers — every job runs exactly
     once, whatever the interleaving. *)
  let n = 64 in
  let ran = Array.make n 0 in
  let mu = Mutex.create () in
  let bump i =
    Mutex.lock mu;
    ran.(i) <- ran.(i) + 1;
    Mutex.unlock mu
  in
  let thunks =
    List.init n (fun i () ->
        bump i;
        (* The elephant spins long enough for the other workers to drain
           their own deques and start stealing. *)
        if i = 0 then begin
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 0.05 do
            ignore (Sys.opaque_identity i)
          done
        end;
        i)
  in
  let out = Parrun.run ~jobs:4 thunks in
  Alcotest.(check (list int)) "index-ordered merge" (List.init n Fun.id) out;
  Alcotest.(check bool)
    "every job ran exactly once" true
    (Array.for_all (fun c -> c = 1) ran)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "edge cases" `Quick test_edges;
          Alcotest.test_case "merge order" `Quick test_merge_order;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
        ] );
      ( "work-stealing",
        [
          Alcotest.test_case "no starvation behind an elephant" `Quick
            test_stealing_no_starvation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cluster replicas, j1 = jN" `Quick
            test_replica_determinism;
          Alcotest.test_case "dirty-rate job list" `Quick test_dirty_rate_jobs;
        ] );
    ]
