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
    List.map fst o.Scenario.o_coverage.Coverage.events
  in
  let runs =
    [ ("cor", cor); ("churn", churn); ("crowd", crowd) ]
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
      ("churn", "exec/reexec");
      ("churn", "balance/move");
      ("churn", "balance/skip");
    ]

(* {1 The fuzz driver}

   Coverage is a plain value: each gap kind is provoked by hand against
   a value that satisfies the library contract, so a gap the gate stops
   reporting fails here. *)

let library_contract =
  Coverage.Library
    {
      scenarios = [ "s" ];
      strategies = [ "precopy" ];
      features = [ "spike" ];
      placements = [ "flat" ];
    }

let full_coverage =
  {
    Coverage.declared = [ "crash" ];
    fired = [ ("crash", 1) ];
    monitors = List.map (fun m -> (m, 1)) Monitors.monitor_names;
    scenarios = [ ("s", 1) ];
    strategies = [ ("precopy", 2) ];
    placements = [ ("flat", 1) ];
    events = [ ("xfer/manifest", 1) ];
    features = [ ("spike", (2, 1)) ];
  }

let gap = Alcotest.testable (Fmt.of_to_string Coverage.gap_line) ( = )

let idle m c =
  {
    c with
    Coverage.monitors =
      List.map
        (fun (n, k) -> (n, if n = m then 0 else k))
        c.Coverage.monitors;
  }

let test_coverage_gaps () =
  let check name contract c expected =
    Alcotest.(check (list gap)) name expected (Coverage.gaps contract c)
  in
  let c = full_coverage in
  check "library contract met" library_contract c [];
  check "free-form contract met" Coverage.Free_form c [];
  check "fault never fired" library_contract
    { c with fired = [ ("crash", 0) ] }
    [ Coverage.Fault_never_fired "crash" ];
  check "undeclared kinds are not owed" Coverage.Free_form
    { c with declared = []; fired = [] }
    [];
  check "monitor idle" Coverage.Free_form (idle "clock" c)
    [ Coverage.Monitor_idle "clock" ];
  check "scenario never ran" library_contract { c with scenarios = [] }
    [ Coverage.Scenario_never_ran "s" ];
  check "strategy never started" library_contract { c with strategies = [] }
    [ Coverage.Strategy_never_started "precopy" ];
  check "feature never materialized" library_contract
    { c with features = [ ("spike", (3, 0)) ] }
    [ Coverage.Feature_never_materialized "spike" ];
  check "placement never dispatched" library_contract
    { c with placements = [] }
    [ Coverage.Placement_never_dispatched "flat" ];
  check "no manifest" library_contract { c with events = [] }
    [ Coverage.No_manifest ];
  check "free-form owes no library promise" Coverage.Free_form
    { c with scenarios = []; strategies = []; features = []; placements = [];
             events = [] }
    [];
  (* Caching is only promised by the library contract. *)
  check "free-form exempts dedup" Coverage.Free_form (idle "dedup" c) [];
  check "library gates dedup" library_contract (idle "dedup" c)
    [ Coverage.Monitor_idle "dedup" ]

let test_coverage_union () =
  let u = Coverage.union full_coverage full_coverage in
  Alcotest.(check (list string)) "declared deduplicated" [ "crash" ]
    u.Coverage.declared;
  Alcotest.(check (list (pair string int))) "counts add" [ ("precopy", 4) ]
    u.Coverage.strategies;
  Alcotest.(check (list (pair string (pair int int))))
    "features add" [ ("spike", (4, 2)) ] u.Coverage.features;
  Alcotest.(check (list gap)) "empty is the identity" []
    (Coverage.gaps library_contract
       (Coverage.union Coverage.empty full_coverage))

(* A serve run counts toward its placement policy only when it selected:
   with no arrivals nothing is dispatched, so [Placement_never_dispatched]
   can fire for a policy whose runs never selected. *)
let test_placement_counts_only_selecting_runs () =
  let sv = { (Scenario.serve_of_seed 1) with Scenario.sv_faults = [] } in
  let placements sv =
    let o = Scenario.run_serve sv in
    (o.Scenario.so_submitted, o.Scenario.so_coverage.Coverage.placements)
  in
  let submitted, idle =
    placements { sv with Scenario.sv_duration = Time.zero }
  in
  Alcotest.(check int) "no arrivals" 0 submitted;
  Alcotest.(check (list (pair string int))) "idle run counts no placement" []
    idle;
  Alcotest.(check (list (pair string int))) "a selecting run counts once"
    [ (Config.placement_name sv.Scenario.sv_placement, 1) ]
    (snd (placements sv))

(* Every CLI strategy token names a distinct discipline. *)
let test_strategy_tokens () =
  let names =
    List.map
      (fun t -> Protocol.strategy_name (Scenario.strategy_of_token t))
      Replay.strategy_tokens
  in
  Alcotest.(check int) "distinct" (List.length Replay.strategy_tokens)
    (List.length (List.sort_uniq String.compare names))

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* Serve seeds 4..7 walk the placement cycle (own draw, flat, pods,
   predictive): each trial's description must name the policy the run
   dispatched through, not the scenario's own draw. Under forwarding
   seed 7 fails, and its FAIL line must carry the override. *)
let test_serve_fail_line_names_dispatched_placement () =
  let run r ~count ~base_seed =
    match Fuzz.run ~jobs:1 ~count ~base_seed r with
    | Ok rep -> rep
    | Error e -> Alcotest.fail e
  in
  let rep = run (Replay.make ~serve:true ()) ~count:4 ~base_seed:4 in
  List.iter
    (fun (t : Fuzz.trial) ->
      match t.Fuzz.coverage.Coverage.placements with
      | [ (policy, _) ] ->
          if not (contains t.Fuzz.description ("placement " ^ policy)) then
            Alcotest.failf "dispatched %s but described as: %s" policy
              t.Fuzz.description
      | _ -> Alcotest.fail "one placement per serve run")
    rep.Fuzz.trials;
  let rep =
    run (Replay.make ~serve:true ~forwarding:true ()) ~count:1 ~base_seed:7
  in
  let lines, passed = Fuzz.render ~require_coverage:false rep in
  Alcotest.(check bool) "forwarding fails" false passed;
  match List.find_opt (fun l -> contains l "FAIL serve seed 7:") lines with
  | Some l ->
      Alcotest.(check bool) ("FAIL line names predictive: " ^ l) true
        (contains l "placement predictive/3")
  | None -> Alcotest.fail "no FAIL line for seed 7"

(* Synthetic traces: the monitor bundle attached to a bare tracer and fed
   hand-written records, so each check is shown to fire on exactly the
   stream that breaks it. *)
let addr = Addr.of_int

let sent ?(seg = 0) frame =
  Ethernet.Frame_sent
    { seg; frame; src = addr 9; dst = Frame.Broadcast; bytes = 64 }

let delivered ?(seg = 0) frame dst =
  Ethernet.Frame_delivered { seg; frame; dst = addr dst }

let attached ?(seg = 0) a = Ethernet.Station_attached { seg; addr = addr a }
let detached ?(seg = 0) a = Ethernet.Station_detached { seg; addr = addr a }
let slice owner = Cpu.Slice { owner; foreground = true; span = Time.of_us 100 }
let frozen lh host = Logical_host.Lh_frozen { host; lh }
let unfrozen lh host = Logical_host.Lh_unfrozen { host; lh }

let committed lh from_host dest =
  Migration.Mig_committed { lh; from_host; dest; freeze = Time.of_us 10 }

let recv host lh =
  Kernel.Ipc_recv { host; txn = 1; src = Ids.pid 1 0; dst = Ids.pid lh 1 }

let synthetic evs =
  let trc = Tracer.create (Engine.create ()) in
  let mon = Monitors.attach trc in
  List.iter (Tracer.emit trc) evs;
  (trc, mon)

let test_synthetic_clean () =
  let evs =
    [
      attached 1; attached 2; attached ~seg:1 1;
      sent 0; sent 1; sent ~seg:1 0;
      (* Segments keep separate frame ids and delivery runs. *)
      delivered 0 1; delivered ~seg:1 0 1; delivered 0 2; delivered 1 1;
      frozen 5 "ws1"; slice 6; unfrozen 5 "ws1"; slice 5;
      committed 5 "ws1" "ws2"; recv "ws2" 5; recv "ws1" 6;
      (* A migration back installs a fresh copy and lifts the ban. *)
      Logical_host.Lh_installed { host = "ws1"; lh = 5; bytes = 0 };
      recv "ws1" 5; detached 2;
    ]
  in
  let _, mon = synthetic evs in
  Alcotest.(check (list string))
    "no violations" []
    (List.map (fun v -> v.Monitors.vi_detail) (Monitors.violations mon));
  Alcotest.(check int) "events seen" (List.length evs) (Monitors.events_seen mon);
  Alcotest.(check (list (pair string int)))
    "per-monitor coverage"
    [
      ("clock", List.length evs); ("conservation", 11); ("convergence", 0);
      ("freeze", 4); ("residual", 5); ("budget", 0); ("dedup", 0);
    ]
    (Monitors.coverage mon)

(* Each stream breaks one check: exactly one violation, from the named
   monitor, with its detail, and a window ending at the offending
   record. *)
let violation_cases =
  [
    ( "never sent", [ attached 1; delivered 7 1 ], "conservation",
      "frame 7 delivered on seg 0 but never sent" );
    ( "twice to one station",
      [ attached 1; sent 0; delivered 0 1; delivered 0 1 ],
      "conservation", "frame 0 delivered twice to station-1 on seg 0" );
    ( "finished frame delivered again",
      [ attached 1; attached 2; sent 0; sent 1; delivered 0 1; delivered 1 1;
        delivered 0 2 ],
      "conservation",
      "frame 0 delivered again to station-2 on seg 0 after its delivery ended" );
    ( "detached station",
      [ attached 1; detached 1; sent 0; delivered 0 1 ],
      "conservation", "frame 0 delivered to detached station station-1" );
    ( "slice while frozen", [ frozen 5 "ws1"; slice 5 ], "freeze",
      "lh 5 got a CPU slice while frozen on ws1" );
    ( "residual delivery",
      [ committed 5 "ws1" "ws2"; recv "ws1" 5 ],
      "residual", "delivery references lh 5 on ws1 after it migrated away: " );
  ]

let test_synthetic_violation (name, evs, monitor, detail) () =
  let trc, mon = synthetic evs in
  match Monitors.violations mon with
  | [ v ] ->
      Alcotest.(check string) "monitor" monitor v.Monitors.vi_monitor;
      Alcotest.(check bool)
        (Printf.sprintf "detail %S starts with %S" v.Monitors.vi_detail detail)
        true
        (String.starts_with ~prefix:detail v.Monitors.vi_detail);
      Alcotest.(check int) "seq" (Tracer.seq trc - 1) v.Monitors.vi_seq;
      Alcotest.(check int) "window" (List.length evs)
        (List.length v.Monitors.vi_window)
  | vs ->
      Alcotest.failf "%s: %d violations: %s" name (List.length vs)
        (String.concat "; " (List.map (fun v -> v.Monitors.vi_detail) vs))

(* Allocation pin: on the common path of the two most frequent
   monitored kinds the monitors allocate nothing beyond amortized bitset
   growth. What remains is the record the tracer boxes for its
   subscribers (4 words); tuple keys or boxed options cost 19. *)
let test_monitor_allocation () =
  let n = 5_000 in
  let trc = Tracer.create ~capacity:64 (Engine.create ()) in
  let mon = Monitors.attach trc in
  List.iter (Tracer.emit trc) [ attached 1; attached 2; frozen 99 "ws1" ];
  for f = 0 to n - 1 do
    Tracer.emit trc (sent f)
  done;
  let evs =
    Array.init (2 * n) (fun i ->
        if i mod 2 = 0 then delivered (i / 2) (1 + (i / 2 mod 2))
        else slice (i mod 7))
  in
  let before = Gc.minor_words () in
  Array.iter (Tracer.emit trc) evs;
  let per_record = (Gc.minor_words () -. before) /. float_of_int (2 * n) in
  Alcotest.(check bool) "clean" true (Monitors.ok mon);
  if per_record > 4.5 then
    Alcotest.failf "%.2f minor words per record (bound 4.5)" per_record

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
      ( "monitors",
        [
          Alcotest.test_case "clean synthetic stream, exact coverage" `Quick
            test_synthetic_clean;
          Alcotest.test_case "common path allocates no monitor state" `Quick
            test_monitor_allocation;
        ]
        @ List.map
            (fun ((name, _, _, _) as c) ->
              Alcotest.test_case ("fires on: " ^ name) `Quick
                (test_synthetic_violation c))
            violation_cases );
      ( "replay",
        QCheck_alcotest.to_alcotest prop_replay_roundtrip
        :: [
             Alcotest.test_case "violation hint round-trips through the CLI"
               `Slow test_replay_line_roundtrips_from_violation;
             Alcotest.test_case "library shapes clean and hinted at seed 5"
               `Slow test_library_plain_clean_and_hinted;
           ] );
      ( "fuzz",
        [
          Alcotest.test_case "every coverage gap kind is reported" `Quick
            test_coverage_gaps;
          Alcotest.test_case "coverage union adds" `Quick test_coverage_union;
          Alcotest.test_case "placement counts only runs that selected" `Quick
            test_placement_counts_only_selecting_runs;
          Alcotest.test_case "strategy tokens name distinct disciplines"
            `Quick test_strategy_tokens;
          Alcotest.test_case "serve FAIL line names the dispatched placement"
            `Quick test_serve_fail_line_names_dispatched_placement;
        ] );
    ]
