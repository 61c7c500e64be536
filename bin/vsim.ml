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

let strategy_token = function
  | `Precopy -> "precopy"
  | `Freeze -> "freeze"
  | `Cor -> "cor"
  | `Vmflush -> "vmflush"

let strategy_conv =
  let parse = function
    | "precopy" -> Ok `Precopy
    | "freeze" -> Ok `Freeze
    | "cor" -> Ok `Cor
    | "vmflush" -> Ok `Vmflush
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (strategy_token s) in
  Cmdliner.Arg.conv (parse, print)

let migrate_cmd seed workstations bridged trace faults prog strategy run_for =
  let cl = make_cluster ?faults ~seed ~workstations ~bridged ~trace () in
  let strategy =
    match strategy with
    | `Precopy -> Protocol.Precopy
    | `Freeze -> Protocol.Freeze_and_copy
    | `Cor -> Protocol.Copy_on_reference
    | `Vmflush ->
        Protocol.Vm_flush { page_server = File_server.pid (Cluster.file_server cl) }
  in
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
          let strategy =
            match strategy with
            | `Precopy -> Protocol.Precopy
            | `Freeze -> Protocol.Freeze_and_copy
            | `Cor -> Protocol.Copy_on_reference
            | `Vmflush ->
                Protocol.Vm_flush
                  { page_server = File_server.pid (Cluster.file_server cl) }
          in
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

(* Deterministic simulation testing: each seed expands to a full random
   scenario (cluster, jobs, migrations, faults) and runs under the
   Monitors bundle. A failure prints the violated invariant plus the
   exact command line that replays it. *)

(* Coverage bookkeeping for aggregate fuzz runs: which fault kinds any
   scenario declared, how often each actually fired, how many events
   each monitor inspected, which migration strategies started, which
   trace-event constructors were observed, and — for library scenarios —
   how often each entry ran and which of its declared features
   materialized. A green run must also prove the behavior matrix was
   genuinely exercised. *)

type coverage_acc = {
  cov_declared : (string, unit) Hashtbl.t;
  cov_fired : (string, int ref) Hashtbl.t;
  cov_monitors : (string, int ref) Hashtbl.t;
  cov_scenarios : (string, int ref) Hashtbl.t;
  cov_strategies : (string, int ref) Hashtbl.t;
  cov_events : (string, int ref) Hashtbl.t;
  (* The sixth dimension: placement policy -> serve runs dispatched
     through it. *)
  cov_placements : (string, int ref) Hashtbl.t;
  (* feature name -> (runs declaring it, runs where it materialized) *)
  cov_features : (string, int ref * int ref) Hashtbl.t;
}

let coverage_acc () =
  {
    cov_declared = Hashtbl.create 8;
    cov_fired = Hashtbl.create 8;
    cov_monitors = Hashtbl.create 8;
    cov_scenarios = Hashtbl.create 8;
    cov_strategies = Hashtbl.create 8;
    cov_events = Hashtbl.create 64;
    cov_placements = Hashtbl.create 8;
    cov_features = Hashtbl.create 8;
  }

let coverage_note ?label ?(features = []) ?(placements = []) acc ~declared
    ~fired ~monitors ~strategies ~events =
  let bump tbl (k, n) =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace tbl k (ref n)
  in
  List.iter (fun k -> Hashtbl.replace acc.cov_declared k ()) declared;
  List.iter (bump acc.cov_fired) fired;
  List.iter (bump acc.cov_monitors) monitors;
  List.iter (bump acc.cov_strategies) strategies;
  List.iter (bump acc.cov_events) events;
  List.iter (fun (p, _) -> bump acc.cov_placements (p, 1)) placements;
  (match label with Some l -> bump acc.cov_scenarios (l, 1) | None -> ());
  List.iter
    (fun (f, materialized) ->
      let decl, mat =
        match Hashtbl.find_opt acc.cov_features f with
        | Some cell -> cell
        | None ->
            let cell = (ref 0, ref 0) in
            Hashtbl.replace acc.cov_features f cell;
            cell
      in
      incr decl;
      if materialized then incr mat)
    features

(* What a library-sampled run promises in aggregate: every sampled entry
   ran, every feature it declares materialized somewhere, every strategy
   it promises started at least once. *)
type coverage_expect = {
  x_scenarios : string list;
  x_strategies : string list;
  x_features : string list;
  x_placements : string list;
      (* Serve mode promises all three placement policies were
         dispatched through (the round-robin sampler guarantees it over
         any >= 4-seed range); empty in plain mode. *)
}

let expect_of_entries entries ~serve =
  let union l = List.sort_uniq String.compare (List.concat l) in
  {
    x_scenarios = List.map Scenario.Library.name entries;
    x_strategies =
      union (List.map (fun e -> Scenario.Library.strategies e ~serve) entries);
    x_features =
      union (List.map (fun e -> Scenario.Library.features e ~serve) entries);
    x_placements = (if serve then Replay.placement_tokens else []);
  }

let sorted_keys tbl =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* Prints the coverage report; returns [true] if a gate is armed and
   missed. [require] gates fault kinds and monitors;
   [require_scenario] additionally gates the library [expect]
   contract (and implies [require]). *)
let coverage_report ~require ~require_scenario ?expect acc =
  let require = require || require_scenario in
  let count tbl k =
    match Hashtbl.find_opt tbl k with Some r -> !r | None -> 0
  in
  let fmt_counts tbl keys =
    if keys = [] then "(none)"
    else
      String.concat ", "
        (List.map (fun k -> Printf.sprintf "%s=%d" k (count tbl k)) keys)
  in
  (match expect with
  | Some x ->
      Printf.printf "scenario coverage: %s\n"
        (fmt_counts acc.cov_scenarios x.x_scenarios)
  | None -> ());
  let declared =
    List.filter (Hashtbl.mem acc.cov_declared) Faults.all_kinds
  in
  Printf.printf "fault coverage: %s\n"
    (if declared = [] then "(no fault kinds declared)"
     else fmt_counts acc.cov_fired declared);
  Printf.printf "monitor coverage: %s\n"
    (fmt_counts acc.cov_monitors Monitors.monitor_names);
  Printf.printf "strategy coverage: %s\n"
    (fmt_counts acc.cov_strategies (sorted_keys acc.cov_strategies));
  if Hashtbl.length acc.cov_placements > 0 then
    Printf.printf "placement coverage: %s\n"
      (fmt_counts acc.cov_placements (sorted_keys acc.cov_placements));
  (* The dedup dimension: content-addressed transfer event kinds, pulled
     from the per-run event-kind census. Informational in plain runs;
     [--require-scenario-coverage] gates on manifests actually flowing. *)
  let dedup_kinds =
    [ "xfer/manifest"; "xfer/hit"; "xfer/miss"; "img/hit"; "img/miss" ]
  in
  Printf.printf "dedup coverage: %s\n" (fmt_counts acc.cov_events dedup_kinds);
  (match expect with
  | Some _ ->
      let features = sorted_keys acc.cov_features in
      Printf.printf "feature coverage: %s\n"
        (if features = [] then "(none declared)"
         else
           String.concat ", "
             (List.map
                (fun f ->
                  let decl, mat = Hashtbl.find acc.cov_features f in
                  Printf.sprintf "%s=%d/%d" f !mat !decl)
                features))
  | None -> ());
  let event_kinds = sorted_keys acc.cov_events in
  Printf.printf "trace coverage: %d event kinds: %s\n"
    (List.length event_kinds)
    (fmt_counts acc.cov_events event_kinds);
  if not require then false
  else begin
    let missing = List.filter (fun k -> count acc.cov_fired k = 0) declared in
    let idle =
      (* The dedup monitor only sees events when caching is on, which
         the plain fuzz gate does not promise — it is held to the
         stricter library contract ([--require-scenario-coverage]),
         where the seed alternation guarantees caching-on runs. *)
      List.filter
        (fun m ->
          count acc.cov_monitors m = 0 && (require_scenario || m <> "dedup"))
        Monitors.monitor_names
    in
    List.iter
      (Printf.printf
         "COVERAGE FAIL: fault kind %S was declared but never fired\n")
      missing;
    List.iter
      (Printf.printf "COVERAGE FAIL: monitor %S never inspected an event\n")
      idle;
    let scenario_gaps =
      if not require_scenario then []
      else
        match expect with
        | None -> []
        | Some x ->
            let never_ran =
              List.filter
                (fun s -> count acc.cov_scenarios s = 0)
                x.x_scenarios
            in
            let no_strategy =
              List.filter
                (fun s -> count acc.cov_strategies s = 0)
                x.x_strategies
            in
            let dry_features =
              List.filter
                (fun f ->
                  match Hashtbl.find_opt acc.cov_features f with
                  | Some (_, mat) -> !mat = 0
                  | None -> true)
                x.x_features
            in
            let no_placement =
              List.filter
                (fun p -> count acc.cov_placements p = 0)
                x.x_placements
            in
            List.iter
              (Printf.printf "COVERAGE FAIL: scenario %S never ran\n")
              never_ran;
            List.iter
              (Printf.printf
                 "COVERAGE FAIL: strategy %S never started a migration\n")
              no_strategy;
            List.iter
              (Printf.printf
                 "COVERAGE FAIL: feature %S never materialized\n")
              dry_features;
            List.iter
              (Printf.printf
                 "COVERAGE FAIL: placement %S never dispatched a selection\n")
              no_placement;
            let no_dedup =
              if count acc.cov_events "xfer/manifest" = 0 then begin
                Printf.printf
                  "COVERAGE FAIL: content-addressed transfer never \
                   exercised (no xfer/manifest events)\n";
                [ "dedup" ]
              end
              else []
            in
            never_ran @ no_strategy @ dry_features @ no_placement @ no_dedup
    in
    missing <> [] || idle <> [] || scenario_gaps <> []
  end

(* Scenario selection: [None] is the free-form generator; a library
   entry list samples round-robin by seed, so every entry gets its share
   of any contiguous seed range. *)
let entry_for entries seed =
  let n = List.length entries in
  List.nth entries (((seed mod n) + n) mod n)

let resolve_scenario = function
  | None -> None
  | Some "all" -> Some Scenario.Library.all
  | Some name -> (
      match Scenario.Library.find name with
      | Some e -> Some [ e ]
      | None ->
          Printf.eprintf "vsim fuzz: unknown scenario %S (known: %s, all)\n"
            name
            (String.concat ", " Scenario.Library.names);
          exit 124)

let fuzz_serve_cmd count base_seed single jobs rebind ~forwarding
    ~strategy_tok ~strategy ~placement_tok ~content_cache_tok
    ~content_cache_for ~entries ~require_coverage ~require_scenario =
  let gen seed =
    match entries with
    | None -> Scenario.serve_of_seed seed
    | Some es -> Scenario.Library.serve (entry_for es seed) ~seed
  in
  (* Placement sampling: an explicit [--placement] forces that policy on
     every run; otherwise seeds cycle through the scenario's own draw
     and the three named policies, so any contiguous >= 4-seed range
     dispatches through every policy. The per-seed choice is a pure
     function of the seed, so a REPLAY line (which records the token
     when one was forced) reproduces the fan-out exactly. *)
  let placement_cycle =
    Array.of_list (None :: List.map Option.some Replay.placement_tokens)
  in
  let placement_tok_for seed =
    match placement_tok with
    | Some _ -> placement_tok
    | None ->
        let n = Array.length placement_cycle in
        placement_cycle.(((seed mod n) + n) mod n)
  in
  (* The named tokens parse to a pod size of 32 (right for scale-out
     benches); fuzz clusters run 4-12 workstations, so rescale to ~3
     pods — still a pure function of (token, scenario). *)
  let placement_for seed sv =
    Option.map
      (fun p ->
        let pod_size = max 2 (sv.Scenario.sv_workstations / 3) in
        match p with
        | Config.Flat_multicast -> p
        | Config.Pod_sharded _ -> Config.Pod_sharded { pod_size }
        | Config.Load_predictive { alpha; _ } ->
            Config.Load_predictive { pod_size; alpha })
      (Option.bind (placement_tok_for seed) Config.placement_of_string)
  in
  let features_of o =
    match (entries, o.Scenario.so_scenario.Scenario.sv_label) with
    | Some es, Some l -> (
        match List.find_opt (fun e -> Scenario.Library.name e = l) es with
        | Some e -> Scenario.Library.check_serve e o
        | None -> [])
    | _ -> []
  in
  let replay o =
    Scenario.replay_serve_hint ~forwarding ?strategy:strategy_tok
      ?placement:(placement_tok_for o.Scenario.so_scenario.Scenario.sv_seed)
      ?content_cache:content_cache_tok o.Scenario.so_scenario
  in
  match single with
  | Some seed ->
      let sv = gen seed in
      print_endline (Scenario.describe_serve sv);
      (match placement_tok_for seed with
      | Some tok when tok <> Scenario.placement_token sv.Scenario.sv_placement
        ->
          Printf.printf "placement override: %s\n" tok
      | _ -> ());
      if content_cache_for seed > 0 then
        Printf.printf "content cache: %d KiB/host\n"
          (content_cache_for seed / 1024);
      let o =
        Scenario.run_serve ~rebind
          ~content_cache:(content_cache_for seed)
          ?strategy
          ?placement:(placement_for seed sv)
          sv
      in
      (match features_of o with
      | [] -> ()
      | fs ->
          Printf.printf "features: %s\n"
            (String.concat ", "
               (List.map
                  (fun (f, m) ->
                    Printf.sprintf "%s=%s" f (if m then "yes" else "no"))
                  fs)));
      Printf.printf
        "%d events checked; %d request(s) submitted, %d completed, %d shed, \
         %d stuck\n"
        o.Scenario.so_events o.Scenario.so_submitted o.Scenario.so_completed
        o.Scenario.so_shed o.Scenario.so_stuck;
      if o.Scenario.so_violations = [] && o.Scenario.so_stuck = 0 then begin
        print_endline "all invariants held";
        0
      end
      else begin
        List.iter
          (fun v -> Format.printf "%a@." Monitors.pp_violation v)
          o.Scenario.so_violations;
        if o.Scenario.so_violations_dropped > 0 then
          Printf.printf "(%d further violations not retained)\n"
            o.Scenario.so_violations_dropped;
        if o.Scenario.so_stuck <> 0 then
          Printf.printf "%d request(s) stuck in no terminal state\n"
            o.Scenario.so_stuck;
        1
      end
  | None ->
      let t0 = Unix.gettimeofday () in
      let cell seed () =
        let sv = gen seed in
        Scenario.run_serve ~rebind
          ~content_cache:(content_cache_for seed)
          ?strategy
          ?placement:(placement_for seed sv)
          sv
      in
      let results =
        Parrun.run ~jobs (List.init count (fun i -> cell (base_seed + i)))
      in
      let failed = ref 0 and events = ref 0 and shed = ref 0 in
      let acc = coverage_acc () in
      List.iter
        (fun o ->
          events := !events + o.Scenario.so_events;
          shed := !shed + o.Scenario.so_shed;
          coverage_note acc
            ?label:o.Scenario.so_scenario.Scenario.sv_label
            ~features:(features_of o)
            ~placements:o.Scenario.so_placements
            ~declared:o.Scenario.so_fault_declared
            ~fired:o.Scenario.so_fault_fired ~monitors:o.Scenario.so_monitors
            ~strategies:o.Scenario.so_strategies
            ~events:o.Scenario.so_event_kinds;
          if o.Scenario.so_violations <> [] || o.Scenario.so_stuck <> 0 then begin
            incr failed;
            Printf.printf "FAIL %s\n"
              (Scenario.describe_serve o.Scenario.so_scenario);
            List.iter
              (fun v ->
                Printf.printf "  [%s] at %s (event #%d): %s\n"
                  v.Monitors.vi_monitor
                  (Time.to_string v.Monitors.vi_at)
                  v.Monitors.vi_seq v.Monitors.vi_detail)
              o.Scenario.so_violations;
            if o.Scenario.so_stuck <> 0 then
              Printf.printf "  %d request(s) stuck in no terminal state\n"
                o.Scenario.so_stuck;
            Printf.printf "  REPLAY: %s\n" (replay o)
          end)
        results;
      Printf.eprintf
        "fuzz --serve: %d seeds (base %d) on %d domain%s in %.2f s\n%!" count
        base_seed jobs
        (if jobs = 1 then "" else "s")
        (Unix.gettimeofday () -. t0);
      let cov_failed =
        coverage_report ~require:require_coverage
          ~require_scenario:require_scenario
          ?expect:
            (Option.map (fun es -> expect_of_entries es ~serve:true) entries)
          acc
      in
      if !failed = 0 && not cov_failed then begin
        Printf.printf
          "fuzz --serve: %d seeds passed, %d events checked, %d shed, 0 stuck\n"
          count !events !shed;
        0
      end
      else begin
        if !failed > 0 then
          Printf.printf "fuzz --serve: %d of %d seeds FAILED\n" !failed count;
        1
      end

let fuzz_cmd count base_seed jobs replay_flags require_coverage
    require_scenario =
  let {
    Replay.r_scenario = scenario_arg;
    r_seed = single;
    r_serve = serve_mode;
    r_forwarding = forwarding;
    r_strategy = strategy_arg;
    r_placement = placement_arg;
    r_content_cache = content_cache_arg;
  } =
    replay_flags
  in
  if (not serve_mode) && placement_arg <> None then
    Printf.eprintf "vsim fuzz: --placement only applies with --serve; ignored\n";
  let entries = resolve_scenario scenario_arg in
  (* Content-cache sampling: an explicit [--content-cache] pins the
     per-host budget on every run; otherwise odd seeds get a 4 MiB cache
     and even seeds run with caching off, so any contiguous >= 2-seed
     range exercises both the content-addressed and the plain transfer
     paths. The choice is a pure function of the seed, so a REPLAY line
     reproduces it without recording the value (the flag is recorded
     only when the user forced one). *)
  let content_cache_for seed =
    match content_cache_arg with
    | Some b -> b
    | None -> if seed land 1 = 1 then 4 * 1024 * 1024 else 0
  in
  let rebind =
    if forwarding then Os_params.Forwarding else Os_params.Broadcast_query
  in
  (* vm-flush needs a per-cluster page-server pid a generated scenario
     can't know; the placeholder is substituted at launch time. *)
  let strategy =
    Option.map
      (function
        | "precopy" -> Protocol.Precopy
        | "freeze" -> Protocol.Freeze_and_copy
        | "cor" -> Protocol.Copy_on_reference
        | _ -> Scenario.vm_flush_placeholder)
      strategy_arg
  in
  if serve_mode then
    fuzz_serve_cmd count base_seed single jobs rebind ~forwarding
      ~strategy_tok:strategy_arg ~strategy ~placement_tok:placement_arg
      ~content_cache_tok:content_cache_arg ~content_cache_for ~entries
      ~require_coverage ~require_scenario
  else
  let gen seed =
    match entries with
    | None -> Scenario.of_seed seed
    | Some es -> Scenario.Library.plain (entry_for es seed) ~seed
  in
  let prep sc =
    match strategy with None -> sc | Some s -> Scenario.force_strategy s sc
  in
  let features_of o =
    match (entries, o.Scenario.o_scenario.Scenario.sc_label) with
    | Some es, Some l -> (
        match List.find_opt (fun e -> Scenario.Library.name e = l) es with
        | Some e -> Scenario.Library.check_plain e o
        | None -> [])
    | _ -> []
  in
  let replay o =
    Scenario.replay_hint ~forwarding ?strategy:strategy_arg
      ?content_cache:content_cache_arg o.Scenario.o_scenario
  in
  match single with
  | Some seed ->
      (* Verbose single-seed replay, with full violation windows. *)
      let sc = prep (gen seed) in
      print_endline (Scenario.describe sc);
      if content_cache_for seed > 0 then
        Printf.printf "content cache: %d KiB/host\n"
          (content_cache_for seed / 1024);
      let o =
        Scenario.run ~rebind ~content_cache:(content_cache_for seed) sc
      in
      Printf.printf "%d events checked; %d job(s) completed, %d failed\n"
        o.Scenario.o_events o.Scenario.o_completed o.Scenario.o_failed;
      (match features_of o with
      | [] -> ()
      | fs ->
          Printf.printf "features: %s\n"
            (String.concat ", "
               (List.map
                  (fun (f, m) ->
                    Printf.sprintf "%s=%s" f (if m then "yes" else "no"))
                  fs)));
      if o.Scenario.o_violations = [] then begin
        print_endline "all invariants held";
        0
      end
      else begin
        List.iter
          (fun v -> Format.printf "%a@." Monitors.pp_violation v)
          o.Scenario.o_violations;
        if o.Scenario.o_violations_dropped > 0 then
          Printf.printf "(%d further violations not retained)\n"
            o.Scenario.o_violations_dropped;
        1
      end
  | None ->
      let t0 = Unix.gettimeofday () in
      let cell seed () =
        Scenario.run ~rebind
          ~content_cache:(content_cache_for seed)
          (prep (gen seed))
      in
      let results =
        Parrun.run ~jobs (List.init count (fun i -> cell (base_seed + i)))
      in
      let failed = ref 0 and events = ref 0 in
      let acc = coverage_acc () in
      List.iter
        (fun o ->
          events := !events + o.Scenario.o_events;
          coverage_note acc
            ?label:o.Scenario.o_scenario.Scenario.sc_label
            ~features:(features_of o)
            ~declared:o.Scenario.o_fault_declared
            ~fired:o.Scenario.o_fault_fired ~monitors:o.Scenario.o_monitors
            ~strategies:o.Scenario.o_strategies
            ~events:o.Scenario.o_event_kinds;
          if o.Scenario.o_violations <> [] then begin
            incr failed;
            Printf.printf "FAIL %s\n" (Scenario.describe o.Scenario.o_scenario);
            List.iter
              (fun v ->
                Printf.printf "  [%s] at %s (event #%d): %s\n"
                  v.Monitors.vi_monitor
                  (Time.to_string v.Monitors.vi_at)
                  v.Monitors.vi_seq v.Monitors.vi_detail)
              o.Scenario.o_violations;
            Printf.printf "  REPLAY: %s\n" (replay o)
          end)
        results;
      Printf.eprintf "fuzz: %d seeds (base %d) on %d domain%s in %.2f s\n%!"
        count base_seed jobs
        (if jobs = 1 then "" else "s")
        (Unix.gettimeofday () -. t0);
      let cov_failed =
        coverage_report ~require:require_coverage
          ~require_scenario:require_scenario
          ?expect:
            (Option.map (fun es -> expect_of_entries es ~serve:false) entries)
          acc
      in
      if !failed = 0 && not cov_failed then begin
        Printf.printf "fuzz: %d seeds passed, %d events checked\n" count !events;
        0
      end
      else begin
        if !failed > 0 then
          Printf.printf "fuzz: %d of %d seeds FAILED\n" !failed count;
        1
      end

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
      & opt strategy_conv `Precopy
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
      & opt strategy_conv `Precopy
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
      & info [ "require-fault-coverage" ]
          ~doc:
            "After an aggregate run, fail unless every fault kind declared by \
             some scenario actually fired and every invariant monitor \
             inspected at least one event — a green run must prove the fault \
             matrix was exercised, not merely scheduled.")
  in
  let require_scenario =
    Arg.(
      value & flag
      & info [ "require-scenario-coverage" ]
          ~doc:
            "With $(b,--scenario): additionally fail unless every sampled \
             library entry ran, every feature it declares (spike, heal, \
             storm, brownout, residual) materialized at least once, and \
             every migration strategy it promises actually started. Implies \
             $(b,--require-fault-coverage).")
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
      const fuzz_cmd $ count $ base $ jobs $ Replay.term $ require_coverage
      $ require_scenario)

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
