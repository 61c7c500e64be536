(* Property tests for the simulation substrate (Engine.cancel) and the
   deterministic-simulation-testing layer itself (Scenario + Monitors).
   Randomness comes from the same Rng the scenario generator uses, so
   every case is replayable from its seed. *)

(* Engine.cancel: cancelled events never fire, double-cancel is a no-op,
   and [pending] counts exactly the survivors. *)
let test_engine_cancel () =
  for seed = 1 to 20 do
    let rng = Rng.create (1000 + seed) in
    let eng = Engine.create () in
    let n = 1 + Rng.int rng 80 in
    let fired = Array.make n false in
    let handles =
      Array.init n (fun i ->
          Engine.schedule eng
            ~at:(Time.of_us (Rng.int rng 1_000_000))
            (fun () -> fired.(i) <- true))
    in
    let cancelled = Array.init n (fun _ -> Rng.bool rng 0.4) in
    Array.iteri (fun i c -> if c then Engine.cancel handles.(i)) cancelled;
    Array.iteri
      (fun i c -> if c && i mod 2 = 0 then Engine.cancel handles.(i))
      cancelled;
    let survivors =
      Array.fold_left (fun acc c -> if c then acc else acc + 1) 0 cancelled
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: pending after cancels" seed)
      survivors (Engine.pending eng);
    Engine.run eng;
    Array.iteri
      (fun i c ->
        if fired.(i) = c then
          Alcotest.failf "seed %d: event %d %s" seed i
            (if c then "fired though cancelled" else "never fired"))
      cancelled;
    Alcotest.(check int) "drained" 0 (Engine.pending eng)
  done

(* Stats: the percentile cache is invalidated by record. *)
let test_percentile_cache () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.record s) [ 5.; 1.; 9. ];
  Alcotest.(check (float 0.)) "p50" 5. (Stats.Summary.percentile s 50.);
  Alcotest.(check (float 0.)) "p100" 9. (Stats.Summary.percentile s 100.);
  Stats.Summary.record s 0.5;
  Alcotest.(check (float 0.)) "p0 after record" 0.5
    (Stats.Summary.percentile s 0.);
  Alcotest.(check (float 0.)) "p100 after record" 9.
    (Stats.Summary.percentile s 100.)

(* Scenario runs are a pure function of the seed. *)
let test_scenario_deterministic () =
  let o1 = Scenario.run (Scenario.of_seed 42) in
  let o2 = Scenario.run (Scenario.of_seed 42) in
  Alcotest.(check int) "events" o1.Scenario.o_events o2.Scenario.o_events;
  Alcotest.(check int) "completed" o1.Scenario.o_completed
    o2.Scenario.o_completed;
  Alcotest.(check int) "failed" o1.Scenario.o_failed o2.Scenario.o_failed

(* The paper-faithful configuration holds every invariant on a spread of
   seeds (a slice of what `vsim fuzz` sweeps). *)
let test_invariants_hold () =
  for seed = 1 to 8 do
    let o = Scenario.run (Scenario.of_seed seed) in
    match o.Scenario.o_violations with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "seed %d: [%s] %s (replay: %s)" seed
          v.Monitors.vi_monitor v.Monitors.vi_detail
          (Scenario.replay_hint o.Scenario.o_scenario)
  done

(* Mutation test: the Demos/MP forwarding-address ablation leaves the
   old host answering for a migrated logical host — exactly the residual
   dependency the paper's broadcast rebinding avoids. The residual
   monitor must object on some nearby seed, with the window naming the
   old host. *)
let test_forwarding_ablation_caught () =
  let rec probe seed =
    if seed > 40 then
      Alcotest.fail "no residual violation in 40 seeds under Forwarding"
    else
      let o =
        Scenario.run ~rebind:Os_params.Forwarding (Scenario.of_seed seed)
      in
      match
        List.find_opt
          (fun v -> v.Monitors.vi_monitor = "residual")
          o.Scenario.o_violations
      with
      | Some v ->
          Alcotest.(check bool)
            "violation window captured" true (v.Monitors.vi_window <> [])
      | None -> probe (seed + 1)
  in
  probe 1

(* Mutation test for the copy-on-reference discipline: forcing every
   job onto it plants a page-source residual dependency by design, so
   the residual monitor must object on EVERY seed — a single silent seed
   means the monitor (or the fault path it watches) has rotted. The same
   seeds forced onto pre-copy must stay clean, pinning that the monitor
   fires because of the strategy and not scenario noise. *)
let test_cor_mutation_caught_on_every_seed () =
  for seed = 1 to 10 do
    let force s = Scenario.force_strategy s (Scenario.of_seed seed) in
    let cor = Scenario.run (force Protocol.Copy_on_reference) in
    (match
       List.find_opt
         (fun v -> v.Monitors.vi_monitor = "residual")
         cor.Scenario.o_violations
     with
    | Some v ->
        Alcotest.(check bool)
          "violation window captured" true (v.Monitors.vi_window <> [])
    | None ->
        Alcotest.failf
          "seed %d: no residual violation under copy-on-reference (replay: %s \
           --strategy cor)"
          seed
          (Scenario.replay_hint cor.Scenario.o_scenario));
    let pre = Scenario.run (force Protocol.Precopy) in
    match pre.Scenario.o_violations with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "seed %d: pre-copy control tripped [%s] %s" seed
          v.Monitors.vi_monitor v.Monitors.vi_detail
  done

(* {1 Replay hints}

   A [REPLAY:] line is only worth printing if it round-trips: the
   canonical printer and the real cmdliner parser live in {!Replay}
   precisely so they cannot drift, and these tests pin that contract —
   including on a hint harvested from an actual monitor violation. *)

let replay_eq a b =
  a.Replay.r_scenario = b.Replay.r_scenario
  && a.Replay.r_seed = b.Replay.r_seed
  && a.Replay.r_serve = b.Replay.r_serve
  && a.Replay.r_forwarding = b.Replay.r_forwarding
  && a.Replay.r_strategy = b.Replay.r_strategy

let replay_gen =
  QCheck.(
    make ~print:Replay.format
      Gen.(
        let opt g = oneof [ return None; map Option.some g ] in
        map
          (fun (scenario, seed, serve, forwarding, strategy) ->
            Replay.make ?scenario ?seed ~serve ~forwarding ?strategy ())
          (tup5
             (opt (oneofl Scenario.Library.names))
             (opt (int_bound 10_000))
             bool bool
             (opt (oneofl Replay.strategy_tokens)))))

let prop_replay_roundtrip =
  QCheck.Test.make ~name:"parse (format r) = Ok r" ~count:200 replay_gen
    (fun r ->
      match Replay.parse (Replay.format r) with
      | Ok r' -> replay_eq r r'
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* Force a real violation (the forwarding ablation trips the residual
   monitor), print its replay hint, and make sure the hint parses back
   to the failing run's exact flags — and that re-running those flags
   reproduces a violation. *)
let test_replay_line_roundtrips_from_violation () =
  let rec probe seed =
    if seed > 40 then Alcotest.fail "no violation in 40 seeds under Forwarding"
    else
      let o = Scenario.run ~rebind:Os_params.Forwarding (Scenario.of_seed seed) in
      if o.Scenario.o_violations = [] then probe (seed + 1)
      else (seed, Scenario.replay_hint ~forwarding:true o.Scenario.o_scenario)
  in
  let seed, line = probe 1 in
  match Replay.parse line with
  | Error e -> Alcotest.failf "replay line %S did not parse: %s" line e
  | Ok r ->
      Alcotest.(check (option int)) "seed" (Some seed) r.Replay.r_seed;
      Alcotest.(check bool) "forwarding" true r.Replay.r_forwarding;
      Alcotest.(check bool) "serve" false r.Replay.r_serve;
      let o' =
        Scenario.run ~rebind:Os_params.Forwarding
          (Scenario.of_seed (Option.get r.Replay.r_seed))
      in
      Alcotest.(check bool) "parsed flags reproduce the violation" true
        (o'.Scenario.o_violations <> [])

(* Every library family: the plain shape at a pinned seed holds the
   invariants, and its replay hint carries --scenario and --seed and
   parses back through the CLI. *)
let test_library_plain_clean_and_hinted () =
  List.iter
    (fun e ->
      let name = Scenario.Library.name e in
      let sc = Scenario.Library.plain e ~seed:5 in
      let o = Scenario.run sc in
      (match o.Scenario.o_violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s: [%s] %s (replay: %s)" name v.Monitors.vi_monitor
            v.Monitors.vi_detail (Scenario.replay_hint sc));
      let hint = Scenario.replay_hint sc in
      match Replay.parse hint with
      | Error err -> Alcotest.failf "%s: hint %S: %s" name hint err
      | Ok r ->
          Alcotest.(check (option string))
            "scenario" (Some name) r.Replay.r_scenario;
          Alcotest.(check (option int)) "seed" (Some 5) r.Replay.r_seed)
    Scenario.Library.all

(* {1 Every registered counter moves}

   Each library family once, in both shapes, under the paper's
   configuration, a 1 MiB content cache and the Demos/MP forwarding
   ablation: between them the runs must move every kernel counter, so a
   bump site that goes dead (or a counter nothing can reach) fails here.
   The one exception is [Reservations_expired], which needs a source to
   fall silent mid-pre-copy; test_faults' "expiry counted" covers it. *)

let covered_elsewhere = [ Kernel.Reservations_expired ]

let test_every_counter_moves () =
  let moved = Hashtbl.create 32 in
  let tally cl =
    List.iter
      (fun c -> if Cluster.sum_stat cl c > 0 then Hashtbl.replace moved c ())
      Kernel.counters
  in
  let modes =
    [ (None, None); (None, Some (1024 * 1024)); (Some Os_params.Forwarding, None) ]
  in
  List.iter
    (fun e ->
      List.iter
        (fun (rebind, content_cache) ->
          tally
            (snd
               (Scenario.run_cluster ?rebind ?content_cache
                  (Scenario.Library.plain e ~seed:1)));
          tally
            (snd
               (Scenario.run_serve_cluster ?rebind ?content_cache
                  (Scenario.Library.serve e ~seed:1))))
        modes)
    Scenario.Library.all;
  let still =
    List.filter
      (fun c -> not (Hashtbl.mem moved c || List.mem c covered_elsewhere))
      Kernel.counters
  in
  Alcotest.(check (list string))
    "counters no run moved" []
    (List.map Kernel.counter_name still)

(* {1 Every traced event is typed}

   Traced clusters driven through the paths whose events exist only as
   dedicated constructors. Crashes are posted from a trace subscriber,
   so each lands at a protocol point, not at a hand-tuned instant. *)

let ws cl host = Option.get (Cluster.find_workstation cl host)

let crash ?(after = Time.zero) cl host =
  Engine.post_after (Cluster.engine cl) after (fun () ->
      let k = (ws cl host).Cluster.ws_kernel in
      if Kernel.running k then Kernel.shutdown k)

(* The "category/type" of every event a traced 4-workstation cluster
   emits while [drive] runs it; [react] sees each record as it lands. *)
let kinds_of ?faults ?(react = fun _ _ -> ()) ~seed drive =
  let cl = Cluster.create ?faults ~seed ~workstations:4 ~trace:true () in
  let kinds = Hashtbl.create 64 in
  Tracer.on_event (Cluster.tracer cl) (fun r ->
      let v = Tracer.view r.Tracer.ev in
      Hashtbl.replace kinds (v.Tracer.v_cat ^ "/" ^ v.Tracer.v_type) ();
      react cl r);
  drive cl;
  List.of_seq (Hashtbl.to_seq_keys kinds)

let test_every_traced_event_is_typed () =
  let migrate strategy cl =
    ignore (Experiment.migrate_program cl ~strategy ~prog:"tex" ())
  in
  (* Copy-on-reference, then the source dies: the program's next page
     fault finds nobody serving its pages. *)
  let cor =
    kinds_of ~seed:1985 (migrate Protocol.Copy_on_reference)
      ~react:(fun cl r ->
        match r.Tracer.ev with
        | Migration.Mig_committed { from_host; _ } ->
            crash ~after:(Time.of_ms 100.) cl from_host
        | _ -> ())
  in
  (* Pre-copy whose destination dies after acknowledging the install,
     while the adoption request is on the wire. *)
  let adopt =
    let source = ref "" and dest = ref "" in
    kinds_of ~seed:1985 (migrate Protocol.Precopy) ~react:(fun cl r ->
        match r.Tracer.ev with
        | Migration.Mig_start { from_host; _ } -> source := from_host
        | Logical_host.Lh_installed { host; _ } when host <> !source ->
            dest := host
        | Kernel.Ipc_send { host; dst; _ }
          when host = !source && !dest <> ""
               && dst = Program_manager.pid (ws cl !dest).Cluster.ws_pm ->
            crash cl !dest;
            dest := ""
        | _ -> ())
  in
  (* ws1 crashes under a program whose caller re-executes it. Three
     guests pinned on ws2 with nobody volunteering make the balancer
     pick one to move, and the move fails for want of a host. *)
  let churn =
    kinds_of ~seed:71
      ~faults:[ Faults.Crash_host { host = "ws1"; at = Time.of_sec 2. } ]
      (fun cl ->
        List.iter
          (fun w -> Program_manager.set_accepting w.Cluster.ws_pm false)
          (Cluster.workstations cl);
        List.iter
          (fun (prog, host) ->
            ignore
              (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
                   ignore
                     (Remote_exec.exec_and_wait ~on_host_failure:(`Reexec 1)
                        ctx ~prog ~target:(Remote_exec.Named host)))))
          [ ("make", "ws1"); ("optimizer", "ws2"); ("parser", "ws2");
            ("assembler", "ws2") ];
        ignore
          (Balancer.start ~interval:(Time.of_sec 2.)
             (ws cl "ws0").Cluster.ws_kernel);
        Cluster.run cl ~until:(Time.of_sec 60.))
  in
  (* The flash-crowd family with content caches on: delta image loads. *)
  let crowd =
    let entry = Option.get (Scenario.Library.find "flash-crowd") in
    let o =
      Scenario.run ~content_cache:(1024 * 1024)
        (Scenario.Library.plain entry ~seed:77)
    in
    List.map fst o.Scenario.o_event_kinds
  in
  let runs =
    [ ("cor", cor); ("adopt", adopt); ("churn", churn); ("crowd", crowd) ]
  in
  List.iter
    (fun (name, kinds) ->
      if List.mem "?/opaque" kinds then
        Alcotest.failf "%s: an event has no registered view" name)
    runs;
  List.iter
    (fun (name, kind) ->
      if not (List.mem kind (List.assoc name runs)) then
        Alcotest.failf "%s: no %s event" name kind)
    [
      ("crowd", "pm/created");
      ("crowd", "fs/load");
      ("cor", "migrate/page-source-lost");
      ("adopt", "migrate/unmanaged");
      ("churn", "exec/reexec");
      ("churn", "balance/move");
      ("churn", "balance/skip");
    ]

let () =
  Alcotest.run "check"
    [
      ( "engine",
        [
          Alcotest.test_case "cancel never fires, pending exact" `Quick
            test_engine_cancel;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile cache invalidates on record" `Quick
            test_percentile_cache;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "same seed, same run" `Quick
            test_scenario_deterministic;
          Alcotest.test_case "invariants hold on paper config" `Slow
            test_invariants_hold;
          Alcotest.test_case "forwarding ablation caught by residual monitor"
            `Slow test_forwarding_ablation_caught;
          Alcotest.test_case "copy-on-reference mutation caught on every seed"
            `Slow test_cor_mutation_caught_on_every_seed;
          Alcotest.test_case "every traced event is typed" `Quick
            test_every_traced_event_is_typed;
          Alcotest.test_case "every registered counter moves" `Quick
            test_every_counter_moves;
        ] );
      ( "replay",
        QCheck_alcotest.to_alcotest prop_replay_roundtrip
        :: [
             Alcotest.test_case "violation hint round-trips through the CLI"
               `Slow test_replay_line_roundtrips_from_violation;
             Alcotest.test_case "library shapes clean and hinted at seed 5"
               `Slow test_library_plain_clean_and_hinted;
           ] );
    ]
