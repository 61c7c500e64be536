(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4), plus the simulator's own throughput cells.

     dune exec bench/main.exe                 -- every default-profile cell
     dune exec bench/main.exe -- <name>       -- one cell, or a family
                                                 ("stress" runs every
                                                  stress:NAME cell)
     dune exec bench/main.exe -- --list       -- every cell and its profile
     dune exec bench/main.exe -- -j N         -- replica parallelism (domains)
     dune exec bench/main.exe -- --quick      -- reduced reps
     dune exec bench/main.exe -- --json FILE  -- machine-readable results
     dune exec bench/main.exe -- --gate DIR   -- the runtest regression gate
                                                 against DIR/BENCH_*.json

   Per-cell cluster runs are independent seeded replicas, fanned out on
   OCaml 5 domains via [Parrun]; results merge in job-index order, so
   the human-readable tables are byte-identical for any [-j].

   Absolute numbers are calibrated (Config / Os_params / Transfer
   document each constant's provenance); what these benches establish is
   that the *shapes* the paper reports emerge from the mechanisms. *)

let sec = Time.of_sec

(* {1 Harness state: output, parallelism, event accounting, JSON report} *)

(* Every line a cell prints goes through [row]: it is echoed to stdout
   and kept in [out], so the gate can byte-compare a cell's output
   across [-j] without re-running it in a subprocess. *)
let out = Buffer.create 4096
let echo = ref true

let row fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string out s;
      Buffer.add_char out '\n';
      if !echo then print_endline s)
    fmt

let banner title = row "\n=== %s ===" title
let quick = ref false
let jobs = ref (Parrun.default_jobs ())

(* Every cluster any experiment builds — including inside parallel jobs
   on worker domains — is registered here so the driver can report
   events fired (and thus events/sec) per experiment. Reads happen only
   after [Parrun.run] returns, i.e. after the worker domains joined. *)
let registry_mu = Mutex.create ()
let registry : Cluster.t list ref = ref []

(* Raw engines (no cluster wrapper) used by the core microbenches count
   toward the same per-experiment event totals. *)
let engine_registry : Engine.t list ref = ref []

let register cl =
  Mutex.lock registry_mu;
  registry := cl :: !registry;
  Mutex.unlock registry_mu

let register_engine e =
  Mutex.lock registry_mu;
  engine_registry := e :: !engine_registry;
  Mutex.unlock registry_mu

let drain_events () =
  Mutex.lock registry_mu;
  let cls = !registry in
  let engines = !engine_registry in
  registry := [];
  engine_registry := [];
  Mutex.unlock registry_mu;
  List.fold_left
    (fun acc cl -> acc + Engine.events_fired (Cluster.engine cl))
    (List.fold_left (fun acc e -> acc + Engine.events_fired e) 0 engines)
    cls

let mk_cluster ?seed ?workstations ?bridged ?cfg ?net_config ?disk_us_per_kb
    ?faults ?trace () =
  let cl =
    Cluster.create ?seed ?workstations ?bridged ?cfg ?net_config
      ?disk_us_per_kb ?faults ?trace ()
  in
  register cl;
  cl

let fresh_cluster ?(seed = 1985) ?(workstations = 6) () =
  mk_cluster ~seed ~workstations ()

(* [par] is the only reader of [!jobs], so a cell that never calls it
   cannot depend on [-j]; the gate re-runs at [-j 2] exactly the cells
   that set this flag. *)
let used_par = ref false

let par thunks =
  used_par := true;
  Parrun.run ~jobs:!jobs thunks

(* Headline numbers for the JSON report; recorded from the main domain
   while formatting, never from inside jobs. *)
let metrics : (string * float) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics

(* Structured sub-reports: experiments that have a [to_json] on their
   result type serialize it whole instead of hand-picking fields. *)
let details : (string * Json_min.t) list ref = ref []
let detail name j = details := (name, j) :: !details

let ok what = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "%s failed: %s\n%!" what e;
      exit 1

(* {1 Table 4-1: dirty page generation rates} *)

let table_4_1 () =
  banner "Table 4-1: dirty page generation (KB of unique pages per window)";
  row "%-16s | %23s | %23s | %23s" "" "0.2 s window" "1 s window" "3 s window";
  row "%-16s | %7s %7s %7s | %7s %7s %7s | %7s %7s %7s" "program" "paper"
    "model" "meas" "paper" "model" "meas" "paper" "model" "meas";
  row "%s" (String.make 94 '-');
  let windows =
    if !quick then [ (0.2, 2); (1.0, 1); (3.0, 1) ]
    else [ (0.2, 5); (1.0, 4); (3.0, 3) ]
  in
  (* One job per (program, window, rep): each rep is an independent
     replica on its own fresh 2-workstation cluster. *)
  let cells =
    List.concat
      (List.mapi
         (fun i (name, _) ->
           List.concat
             (List.mapi
                (fun wi (w, reps) ->
                  List.init reps (fun r -> (i, name, wi, w, r)))
                windows))
         Programs.table_4_1)
  in
  let measured =
    par
      (List.map
         (fun (i, name, wi, w, r) () ->
           let seed = 100 + i + (1000 * ((wi * 8) + r + 1)) in
           let cl = mk_cluster ~seed ~workstations:2 () in
           match Experiment.dirty_rate cl ~prog:name ~window:(sec w) ~reps:1 () with
           | Ok kb -> ((i, wi), Some kb)
           | Error e ->
               Printf.eprintf "dirty_rate %s/%.1fs: %s\n%!" name w e;
               ((i, wi), None))
         cells)
  in
  let mean i wi =
    match
      List.filter_map (fun (k, v) -> if k = (i, wi) then v else None) measured
    with
    | [] -> nan
    | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  List.iteri
    (fun i (name, (triple : Calibrate.triple)) ->
      let spec = Programs.find name in
      let model t = Dirty_model.expected_unique_kb spec.Programs.dirty t in
      row "%-16s | %7.1f %7.1f %7.1f | %7.1f %7.1f %7.1f | %7.1f %7.1f %7.1f"
        name triple.Calibrate.u02 (model 0.2) (mean i 0) triple.Calibrate.u1
        (model 1.0) (mean i 1) triple.Calibrate.u3 (model 3.0) (mean i 2))
    Programs.table_4_1;
  row "%s" (String.make 94 '-');
  row
    "paper = Table 4-1; model = fitted hot/cold closed form; meas = simulated \
     program, dirty bits sampled";
  let errs =
    List.mapi
      (fun i (_, (t : Calibrate.triple)) ->
        Float.abs (mean i 1 -. t.Calibrate.u1))
      Programs.table_4_1
  in
  metric "mean_abs_err_1s_kb"
    (List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs))

(* {1 E-exec: remote execution cost split (Section 4.1)} *)

let exec_cost () =
  banner "E-exec: remote execution cost split (Section 4.1)";
  (* Host selection: first response to the multicast query. One shared
     cluster, sampled sequentially in virtual time — inherently serial. *)
  let samples = 15 in
  let sel = Stats.Summary.create () in
  let cl = fresh_cluster ~workstations:8 () in
  ignore
    (Cluster.user cl ~ws:0 ~name:"selector" (fun k self ->
         for _ = 1 to samples do
           (match
              Scheduler.Spine.select_in_group ~group:Ids.program_manager_group k (Cluster.cfg cl) ~self ~bytes:(64 * 1024)
            with
           | Ok s ->
               Stats.Summary.record sel (Time.to_ms s.Scheduler.s_responded_in)
           | Error _ -> ());
           Proc.sleep (Cluster.engine cl) (sec 1.)
         done));
  Cluster.run cl ~until:(sec 60.);
  row "host selection (first response): paper 23 ms";
  row "  measured over %d queries: mean %.1f ms  min %.1f  max %.1f"
    (Stats.Summary.count sel) (Stats.Summary.mean sel) (Stats.Summary.min sel)
    (Stats.Summary.max sel);
  metric "selection_mean_ms" (Stats.Summary.mean sel);
  (* Environment setup + destroy. *)
  let cl = fresh_cluster () in
  let r = ok "exec" (Experiment.remote_exec cl ~prog:"cc68" ()) in
  let cfg = Cluster.cfg cl in
  row "environment setup + destroy: paper 40 ms";
  row "  measured setup %.1f ms + configured destroy %.1f ms = %.1f ms"
    (Time.to_ms r.Experiment.er_setup)
    (Time.to_ms cfg.Config.env_destroy)
    (Time.to_ms r.Experiment.er_setup +. Time.to_ms cfg.Config.env_destroy);
  metric "env_setup_ms" (Time.to_ms r.Experiment.er_setup);
  detail "remote_exec_cc68" (Experiment.exec_result_to_json r);
  (* Program loading vs image size: one replica per program. *)
  row "program loading: paper 330 ms per 100 KB (sweep over real images)";
  row "  %-16s %10s %10s %12s" "program" "image KB" "load ms" "ms/100KB";
  let loads =
    par
      (List.map
         (fun name () ->
           let spec = Programs.find name in
           let kb =
             float_of_int (File_server.image_file_bytes spec.Programs.image)
             /. 1024.
           in
           let cl = fresh_cluster () in
           let r = ok "exec" (Experiment.remote_exec cl ~prog:name ()) in
           (name, kb, Time.to_ms r.Experiment.er_load))
         [ "cc68"; "make"; "assembler"; "optimizer"; "linking loader"; "tex" ])
  in
  List.iter
    (fun (name, kb, load) ->
      row "  %-16s %10.0f %10.0f %12.0f" name kb load (load /. (kb /. 100.)))
    loads;
  let per100 =
    List.map (fun (_, kb, load) -> load /. (kb /. 100.)) loads
  in
  metric "load_ms_per_100kb"
    (List.fold_left ( +. ) 0. per100 /. float_of_int (List.length per100))

(* {1 E-copy: address-space copy rate (Section 4.1)} *)

let copy_rate () =
  banner "E-copy: inter-host bulk copy (paper: 3 s per megabyte)";
  row "  %10s %12s %10s" "KB" "seconds" "s/MB";
  let results =
    par
      (List.map
         (fun kb () ->
           let cl = fresh_cluster () in
           (kb, Experiment.copy_rate cl ~bytes:(kb * 1024)))
         [ 256; 512; 1024; 2048 ])
  in
  List.iter
    (fun (kb, span) ->
      let s = Time.to_sec span in
      let s_per_mb = s /. (float_of_int kb /. 1024.) in
      row "  %10d %12.3f %10.3f" kb s s_per_mb;
      if kb = 1024 then metric "s_per_mb" s_per_mb)
    results

(* {1 E-kstate: kernel state copy (Section 4.1)} *)

let kernel_state () =
  banner
    "E-kstate: kernel/program-manager state copy (paper: 14 ms + 9 ms per \
     process and address space)";
  row "  %8s %8s %14s %14s" "procs" "spaces" "paper ms" "measured ms";
  let results =
    par
      (List.map
         (fun extra () ->
           let cl = fresh_cluster ~seed:(500 + extra) () in
           ( extra,
             Experiment.migrate_program cl ~extra_processes:extra
               ~prog:"optimizer" () ))
         [ 0; 1; 3; 7; 15 ])
  in
  List.iter
    (fun (extra, outcome) ->
      let o = ok "migrate" outcome in
      let procs = 1 + extra and spaces = 1 in
      let paper = 14. +. (9. *. float_of_int (procs + spaces)) in
      let meas = Time.to_ms o.Protocol.m_kernel_state in
      row "  %8d %8d %14.0f %14.0f" procs spaces paper meas;
      if extra = 0 then metric "kstate_ms_1proc" meas)
    results

(* {1 E-freeze: pre-copy behaviour per program (Section 4.1)} *)

let freeze_time () =
  banner
    "E-freeze: pre-copy migration per program (paper: ~2 useful rounds, \
     0.5-70 KB frozen residue, 5-210 ms suspension + kernel-state time)";
  row "  %-16s %7s %12s %10s %11s %11s %9s" "program" "rounds" "precopied KB"
    "final KB" "freeze ms" "kstate ms" "total s";
  let per_prog =
    par
      (List.mapi
         (fun i (name, _) () ->
           let cl = fresh_cluster ~seed:(700 + i) () in
           (name, Experiment.migrate_program cl ~prog:name ()))
         Programs.table_4_1)
  in
  let freezes = ref [] in
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Error e -> row "  %-16s migration failed: %s" name e
      | Ok o ->
          freezes := Time.to_ms (Protocol.freeze_span o) :: !freezes;
          row "  %-16s %7d %12d %10d %11.1f %11.0f %9.2f" name
            (List.length o.Protocol.m_rounds)
            (Protocol.precopied_bytes o / 1024)
            (o.Protocol.m_final_bytes / 1024)
            (Time.to_ms (Protocol.freeze_span o))
            (Time.to_ms o.Protocol.m_kernel_state)
            (Time.to_sec o.Protocol.m_total))
    per_prog;
  (match !freezes with
  | [] -> ()
  | xs ->
      metric "mean_freeze_ms"
        (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)));
  (* Strategy comparison: the case for pre-copying. *)
  banner "E-freeze (cont.): strategy comparison on tex (708 KB logical host)";
  row "  %-16s %11s %9s %14s %12s" "strategy" "freeze ms" "total s" "moved KB"
    "faultin KB";
  let strategies =
    par
      (List.mapi
         (fun i name () ->
           let cl = fresh_cluster ~seed:(800 + i) () in
           let strategy =
             match name with
             | "precopy" -> Protocol.Precopy
             | "freeze-and-copy" -> Protocol.Freeze_and_copy
             | _ ->
                 Protocol.Vm_flush
                   { page_server = File_server.pid (Cluster.file_server cl) }
           in
           (name, Experiment.migrate_program cl ~strategy ~prog:"tex" ()))
         [ "precopy"; "freeze-and-copy"; "vm-flush" ])
  in
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Error e -> row "  %-16s failed: %s" name e
      | Ok o ->
          row "  %-16s %11.1f %9.2f %14d %12d" name
            (Time.to_ms (Protocol.freeze_span o))
            (Time.to_sec o.Protocol.m_total)
            ((Protocol.precopied_bytes o + o.Protocol.m_final_bytes) / 1024)
            (o.Protocol.m_faultin_bytes / 1024))
    strategies

(* {1 Figure 3-1: migration via virtual memory flush (Section 3.2)} *)

let vm_flush () =
  banner
    "Figure 3-1: VM-flush migration (flush dirty pages to the file server, \
     demand-fault at the new host)";
  let cl = fresh_cluster () in
  let o =
    ok "vm-flush"
      (Experiment.migrate_program cl
         ~strategy:
           (Protocol.Vm_flush
              { page_server = File_server.pid (Cluster.file_server cl) })
         ~prog:"tex" ())
  in
  List.iteri
    (fun i r ->
      row "  flush round %d: %6d KB in %s" (i + 1)
        (r.Protocol.r_bytes / 1024)
        (Time.to_string r.Protocol.r_span))
    o.Protocol.m_rounds;
  row "  frozen flush : %6d KB" (o.Protocol.m_final_bytes / 1024);
  row "  freeze time  : %s (vs ~2.1 s to copy 708 KB frozen)"
    (Time.to_string (Protocol.freeze_span o));
  row "  fault-in (double-transferred) pages: %d KB — the Section 3.2 cost"
    (o.Protocol.m_faultin_bytes / 1024);
  metric "faultin_kb" (float_of_int (o.Protocol.m_faultin_bytes / 1024))

(* {1 E-ovh: kernel operation overheads (Section 4.1)} *)

let overheads () =
  banner
    "E-ovh: kernel op overheads (paper: +100 us group-id indirection, +13 us \
     frozen test)";
  let latency ~params () =
    let cfg = { Config.default with Config.os = params } in
    let cl = mk_cluster ~seed:42 ~workstations:2 ~cfg () in
    Experiment.kernel_op_latency cl ~samples:50
  in
  let base = Os_params.default in
  match
    par
      [
        latency ~params:base;
        latency ~params:{ base with Os_params.frozen_check = Time.zero };
        latency ~params:{ base with Os_params.group_lookup = Time.zero };
      ]
  with
  | [ full; no_frozen; no_group ] ->
      row "  local kernel-server round trip, full kernel: %8.1f us" full;
      row
        "  without frozen-state test                   : %8.1f us  (delta %.1f \
         over send+reply = %.1f us/op, paper 13)"
        no_frozen (full -. no_frozen)
        ((full -. no_frozen) /. 2.);
      row
        "  without local-group indirection             : %8.1f us  (delta %.1f \
         us/op, paper 100)"
        no_group (full -. no_group);
      row
        "  binding-cache machinery                   : 0 us extra (pre-exists \
         for pid-to-Ethernet mapping, as in the paper)";
      metric "kernel_op_us" full
  | _ -> assert false

(* {1 E-space: space cost (Section 4.2)} *)

let space_cost () =
  banner
    "E-space: code added for migration support (paper: +8 KB kernel, +4 KB \
     program manager)";
  let file_stats path =
    if not (Sys.file_exists path) then begin
      Printf.eprintf "space-cost: listed source file %s is missing\n%!" path;
      exit 1
    end;
    let ic = open_in path in
    let n = in_channel_length ic in
    let lines = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr lines
       done
     with End_of_file -> ());
    close_in ic;
    (n, !lines)
  in
  let group name paths =
    let bytes, lines =
      List.fold_left
        (fun (b, l) p ->
          let b', l' = file_stats p in
          (b + b', l + l'))
        (0, 0) paths
    in
    row "  %-44s %7d bytes %6d lines" name bytes lines
  in
  if Sys.file_exists "lib" then begin
    group "migration support (migrateprog + manager)"
      [
        "lib/core/migration.ml"; "lib/core/migration.mli";
        "lib/core/protocol.ml"; "lib/core/protocol.mli";
      ];
    group "logical host freeze/extract/install"
      [ "lib/vos/logical_host.ml"; "lib/vos/logical_host.mli" ];
    group "whole kernel substrate (for scale)"
      [ "lib/vos/kernel.ml"; "lib/vos/kernel.mli" ];
    row
      "  shape check: migration support is a modest fraction of the kernel, \
       as in the paper's 8 KB + 4 KB"
  end
  else
    row
      "  (source tree not visible from this working directory; run from the \
       repository root)"

(* {1 E-usage: pool of processors (Section 4.3)} *)

let usage () =
  let minutes = if !quick then 3. else 10. in
  banner
    (Printf.sprintf
       "E-usage: pool-of-processors, 25 workstations, %g simulated minutes \
        (Section 4.3)"
       minutes);
  let cl = fresh_cluster ~seed:2024 ~workstations:25 () in
  let stats =
    Experiment.usage cl
      {
        Experiment.default_usage_params with
        Experiment.u_horizon = sec (60. *. minutes);
      }
  in
  row "%s" (Format.asprintf "%a" Experiment.pp_usage stats);
  row "paper: >1/3 workstations idle at the busiest times; >80%% idle at peak \
       hours; almost all remote execution requests honored";
  let honored_frac =
    if stats.Experiment.us_submitted = 0 then 1.
    else
      float_of_int stats.Experiment.us_honored
      /. float_of_int stats.Experiment.us_submitted
  in
  row "shape check: honored %.0f%%, idle %.0f%% -- %s" (100. *. honored_frac)
    (100. *. stats.Experiment.us_mean_idle)
    (if honored_frac > 0.8 && stats.Experiment.us_mean_idle > 0.33 then
       "consistent with the paper"
     else "INCONSISTENT with the paper");
  metric "honored_frac" honored_frac;
  metric "mean_idle" stats.Experiment.us_mean_idle;
  detail "usage" (Experiment.usage_to_json stats)

(* {1 Ablations: design choices called out in DESIGN.md} *)

let precopy_ablation () =
  banner
    "A-precopy: round-termination policy (stop when a round shrinks the \
     residue by < factor, or below min KB)";
  row "  %-8s %12s %8s %7s %10s %11s %12s" "program" "improvement" "min KB"
    "rounds" "final KB" "freeze ms" "moved KB";
  let settings = [ (0.3, 8); (0.5, 8); (0.7, 8); (0.85, 8); (0.95, 8); (0.7, 64) ] in
  let cells =
    List.concat_map
      (fun prog -> List.map (fun s -> (prog, s)) settings)
      [ "parser"; "tex" ]
  in
  let results =
    par
      (List.map
         (fun (prog, (improvement, min_kb)) () ->
           let cfg =
             {
               Config.default with
               Config.precopy_improvement = improvement;
               precopy_min_residue = min_kb * 1024;
             }
           in
           let cl = mk_cluster ~seed:4242 ~workstations:6 ~cfg () in
           ((prog, improvement, min_kb), Experiment.migrate_program cl ~prog ()))
         cells)
  in
  List.iter
    (fun ((prog, improvement, min_kb), outcome) ->
      match outcome with
      | Error e -> row "  %-8s failed: %s" prog e
      | Ok o ->
          row "  %-8s %12.2f %8d %7d %10d %11.1f %12d" prog improvement min_kb
            (List.length o.Protocol.m_rounds)
            (o.Protocol.m_final_bytes / 1024)
            (Time.to_ms (Protocol.freeze_span o))
            ((Protocol.precopied_bytes o + o.Protocol.m_final_bytes) / 1024))
    results;
  row
    "shape: lenient termination (high factor) trades extra copy rounds and \
     wire traffic for a residue approaching the dirty-rate fixpoint; the \
     paper's 'usually 2 iterations' sits at the knee"

let loss_ablation () =
  banner
    "A-loss: migration under packet loss (retransmission and reply-pending \
     machinery under fire)";
  row "  %-8s %8s %7s %10s %11s %9s" "program" "loss" "rounds" "final KB"
    "freeze ms" "total s";
  let results =
    par
      (List.map
         (fun loss () ->
           let net_config =
             { Ethernet.default_config with loss_probability = loss }
           in
           let cl = mk_cluster ~seed:99 ~workstations:6 ~net_config () in
           (loss, Experiment.migrate_program cl ~prog:"parser" ()))
         [ 0.0; 0.01; 0.05 ])
  in
  List.iter
    (fun (loss, outcome) ->
      match outcome with
      | Error e -> row "  %-8s %8.2f failed: %s" "parser" loss e
      | Ok o ->
          row "  %-8s %8.2f %7d %10d %11.1f %9.2f" "parser" loss
            (List.length o.Protocol.m_rounds)
            (o.Protocol.m_final_bytes / 1024)
            (Time.to_ms (Protocol.freeze_span o))
            (Time.to_sec o.Protocol.m_total))
    results;
  row
    "shape: loss stretches copies (lost frames retransmit) and freeze \
     slightly; correctness is unaffected — the Section 3.1.3 machinery \
     absorbs it"

let scale () =
  banner
    "A-scale: decentralized selection vs cluster size ('performs well at \
     minimal cost for reasonably small systems', Section 2.1)";
  row "  %6s %14s %16s %18s" "hosts" "first resp ms" "replies received"
    "volunteer rate";
  let results =
    par
      (List.map
         (fun n () ->
           let cl = fresh_cluster ~seed:5 ~workstations:n () in
           let first = ref nan and all = ref 0 in
           ignore
             (Cluster.user cl ~ws:0 ~name:"prober" (fun k self ->
                  (match
                     Scheduler.Spine.select_in_group ~group:Ids.program_manager_group k (Cluster.cfg cl) ~self
                       ~bytes:(64 * 1024)
                   with
                  | Ok s -> first := Time.to_ms s.Scheduler.s_responded_in
                  | Error _ -> ());
                  Proc.sleep (Cluster.engine cl) (sec 1.);
                  all :=
                    List.length
                      (Scheduler.Spine.candidates k (Cluster.cfg cl) ~self
                         ~bytes:(64 * 1024) ~window:(Time.of_ms 100.))));
           Cluster.run cl ~until:(sec 5.);
           (n, !first, !all))
         [ 4; 8; 16; 32 ])
  in
  List.iter
    (fun (n, first, all) ->
      row "  %6d %14.1f %16d %18s" n first all (Printf.sprintf "%d/%d" all n))
    results;
  row
    "shape: first-response latency is flat (one multicast, fastest \
     volunteer); the linear cost is the pile of extra replies the client \
     discards"

let rebind_ablation () =
  banner
    "A-rebind: V broadcast-query rebinding vs Demos/MP forwarding addresses \
     (Section 5)";
  let forwarding_cfg =
    {
      Config.default with
      Config.os =
        { Os_params.default with Os_params.rebind = Os_params.Forwarding };
    }
  in
  let scenario ~label ~cfg ~reboot_old () =
    let cl = mk_cluster ~seed:77 ~workstations:5 ~cfg () in
    Program_manager.set_accepting (Cluster.workstation cl 0).Cluster.ws_pm false;
    let outcome = ref "did not run" in
    let forwarded = ref 0 in
    ignore
      (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
           match Remote_exec.exec ctx ~prog:"assembler" ~target:Remote_exec.Any with
           | Error e -> outcome := "exec failed: " ^ e
           | Ok h -> (
               Proc.sleep (Cluster.engine cl) (sec 1.);
               match Remote_exec.migrate_program ctx h with
               | Ok o -> (
                   let old_ws = Cluster.find_workstation cl o.Protocol.m_from in
                   if reboot_old then
                     Option.iter
                       (fun w -> Kernel.shutdown w.Cluster.ws_kernel)
                       old_ws;
                   match Remote_exec.wait ctx h with
                   | Ok _ ->
                       Option.iter
                         (fun w ->
                           forwarded := Kernel.count w.Cluster.ws_kernel Kernel.Forwarded)
                         old_ws;
                       outcome := "completed"
                   | Error e -> outcome := "stale reference FAILED: " ^ e)
               | Error _ -> outcome := "migration failed")));
    Cluster.run cl ~until:(sec 200.);
    Printf.sprintf "  %-44s %-28s old host relayed %d packets" label !outcome
      !forwarded
  in
  List.iter (row "%s")
    (par
       [
         scenario ~label:"forwarding, old host stays up" ~cfg:forwarding_cfg
           ~reboot_old:false;
         scenario ~label:"forwarding, old host reboots" ~cfg:forwarding_cfg
           ~reboot_old:true;
         scenario ~label:"V broadcast query, old host reboots"
           ~cfg:Config.default ~reboot_old:true;
       ]);
  row
    "shape: forwarding works only while the old host lives (and loads it); \
     V's logical-host rebinding needs nothing from the old host — the \
     paper's argument against Demos/MP"

let recovery () =
  banner
    "A-recovery: destination crash mid-migration (Section 3.1.3: the copy \
     'fails due to lack of acknowledgement')";
  (* The program lands on ws1; ws2 is the only willing destination until
     the fault plan crashes it mid-copy, at which point ws3 (in the retry
     scenario) opens up. *)
  let scenario ~label ~retries ~open_alternate () =
    let cfg = { Config.default with Config.migration_retries = retries } in
    let cl =
      mk_cluster ~seed:9090 ~workstations:5 ~cfg
        ~faults:[ Faults.Crash_host { host = "ws2"; at = sec 4.5 } ]
        ()
    in
    let eng = Cluster.engine cl in
    let accepting i b =
      Program_manager.set_accepting (Cluster.workstation cl i).Cluster.ws_pm b
    in
    List.iter (fun i -> accepting i (i = 1)) [ 0; 1; 2; 3; 4 ];
    Engine.post eng ~at:(sec 3.5) (fun () ->
        accepting 1 false;
        accepting 2 true);
    if open_alternate then
      Engine.post eng ~at:(sec 4.5) (fun () -> accepting 3 true);
    let outcome = ref "did not run" in
    ignore
      (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
           match Remote_exec.exec ctx ~prog:"tex" ~target:Remote_exec.Any with
           | Error e -> outcome := "exec failed: " ^ e
           | Ok h -> (
               Proc.sleep eng (Time.sub (sec 4.) (Engine.now eng));
               let t0 = Engine.now eng in
               let migrate =
                 Result.map_error Remote_exec.migrate_error_message
                   (Remote_exec.migrate_program ~pm:h.Remote_exec.h_pm ctx h)
               in
               let elapsed = Time.to_sec (Time.sub (Engine.now eng) t0) in
               let verdict =
                 match migrate with
                 | Ok o ->
                     Printf.sprintf "migrated to %s in %.1f s"
                       o.Protocol.m_dest elapsed
                 | Error m ->
                     Printf.sprintf "rolled back after %.1f s (%s)" elapsed m
               in
               match Remote_exec.wait ctx h with
               | Ok (wall, _) ->
                   outcome :=
                     Printf.sprintf "%s; program completed (wall %.1f s)"
                       verdict (Time.to_sec wall)
               | Error e -> outcome := verdict ^ "; WAIT FAILED: " ^ e)));
    Cluster.run cl ~until:(sec 200.);
    Printf.sprintf "  %-28s retries=%d  %s" label retries !outcome
  in
  List.iter (row "%s")
    (par
       [
         scenario ~label:"abandon (paper's policy)" ~retries:0
           ~open_alternate:false;
         scenario ~label:"retry with reselection" ~retries:2
           ~open_alternate:true;
       ]);
  row
    "shape: the acked copy detects the dead destination; with no retries the \
     frozen host is re-installed and unfrozen at the source, with retries \
     selection re-runs excluding the crashed host — either way the program \
     survives"

let internet () =
  banner
    "A-internet: bridged segments (the Section 6 internet direction, first \
     step: two Ethernets joined by a 2 ms store-and-forward bridge)";
  (* Migration driver: start on segment 0, then open only the requested
     segment as a destination, so the "far" case genuinely crosses. *)
  let migrate_toward ~far =
    let cl = mk_cluster ~seed:6001 ~workstations:5 ~bridged:2 () in
    let open_segment s b =
      List.iter
        (fun w ->
          if w.Cluster.ws_segment = s then
            Program_manager.set_accepting w.Cluster.ws_pm b)
        (Cluster.workstations cl)
    in
    open_segment 1 false;
    let result = ref (Error "incomplete") in
    ignore
      (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
           match Remote_exec.exec ctx ~prog:"optimizer" ~target:Remote_exec.Any with
           | Error e -> result := Error ("exec: " ^ e)
           | Ok h ->
               if far then begin
                 open_segment 1 true;
                 open_segment 0 false
               end;
               Proc.sleep (Cluster.engine cl) (sec 3.);
               result :=
                 Result.map_error
                   (fun _ -> "migration failed")
                   (Remote_exec.migrate_program ctx h)));
    Cluster.run cl ~until:(sec 120.);
    !result
  in
  let measure ~far () =
    let cl = mk_cluster ~seed:6000 ~workstations:4 ~bridged:2 () in
    (* Force placement on the near or far segment. *)
    List.iter
      (fun w ->
        Program_manager.set_accepting w.Cluster.ws_pm
          (w.Cluster.ws_segment = if far then 1 else 0))
      (Cluster.workstations cl);
    let r = ok "exec" (Experiment.remote_exec cl ~prog:"cc68" ()) in
    (r, migrate_toward ~far)
  in
  let near, far =
    match par [ measure ~far:false; measure ~far:true ] with
    | [ near; far ] -> (near, far)
    | _ -> assert false
  in
  let pp_mig = function
    | Ok o ->
        Printf.sprintf "freeze %5.1f ms, total %.2f s"
          (Time.to_ms (Protocol.freeze_span o))
          (Time.to_sec o.Protocol.m_total)
    | Error e -> "failed: " ^ e
  in
  let near_exec, near_mig = near and far_exec, far_mig = far in
  row "  %-22s select %5.1f ms  load %5.0f ms  migration: %s" "same segment"
    (match near_exec.Experiment.er_select with
    | Some s -> Time.to_ms s
    | None -> nan)
    (Time.to_ms near_exec.Experiment.er_load)
    (pp_mig near_mig);
  row "  %-22s select %5.1f ms  load %5.0f ms  migration: %s" "across the bridge"
    (match far_exec.Experiment.er_select with
    | Some s -> Time.to_ms s
    | None -> nan)
    (Time.to_ms far_exec.Experiment.er_load)
    (pp_mig far_mig);
  row
    "shape: everything still works across the bridge — selection pays one \
     extra round trip, bulk transfers pay per-frame store-and-forward, so \
     copies run at roughly the bridged-path rate; the paper's anticipated \
     'new issues of scale' show up as latency, not correctness"

let balance_ablation () =
  banner
    "A-balance: preemptive load balancing (the Section 6 future-work item, \
     built on migrateprog)";
  let run ~with_balancer () =
    let cfg = { Config.default with Config.max_guests = 8 } in
    let cl = mk_cluster ~seed:4141 ~workstations:5 ~cfg () in
    let eng = Cluster.engine cl in
    let done_at = ref Time.zero and completed = ref 0 in
    for i = 1 to 6 do
      ignore
        (Cluster.shell cl ~ws:0 ~name:(Printf.sprintf "job%d" i) (fun ctx ->
             match
               Remote_exec.exec_and_wait ctx ~prog:"optimizer"
                 ~target:(Remote_exec.Named "ws1")
             with
             | Ok _ ->
                 incr completed;
                 done_at := Time.max !done_at (Engine.now eng)
             | Error _ -> ()))
    done;
    let b =
      if with_balancer then
        Some
          (Balancer.start ~interval:(sec 3.) ~imbalance:2
             (Cluster.workstation cl 0).Cluster.ws_kernel)
      else None
    in
    Cluster.run cl ~until:(sec 300.);
    ( !completed,
      Time.to_sec !done_at,
      match b with Some b -> Balancer.rebalances b | None -> 0 )
  in
  let (c0, makespan0, _), (c1, makespan1, moves) =
    match par [ run ~with_balancer:false; run ~with_balancer:true ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  row "  six 10s-CPU jobs piled on one workstation (prog @ ws1):";
  row "  %-18s completed %d/6, makespan %6.1f s" "no balancer" c0 makespan0;
  row "  %-18s completed %d/6, makespan %6.1f s (%d preemptive moves)"
    "with balancer" c1 makespan1 moves;
  row
    "shape: preemption turns an overloaded workstation into pool-wide \
     parallelism; makespan drops toward the per-job runtime"

(* {1 E-serve: sustained traffic through the service layer} *)

let serve () =
  let duration = if !quick then 30. else 120. in
  banner
    (Printf.sprintf
       "E-serve: sustained traffic, 32 workstations, %g simulated seconds \
        (open-loop arrivals + admission control + continuous rebalancing)"
       duration);
  let cl = fresh_cluster ~seed:1985 ~workstations:32 () in
  let params =
    { Serve.Session.default_params with Serve.Session.duration = sec duration }
  in
  let s = Serve.Session.create ~params cl in
  Serve.Session.drain s;
  let m = Serve.Session.metrics s in
  row "  submitted %d  completed %d  rejected %d  refused %d  failed %d"
    m.Serve.Session.m_submitted m.Serve.Session.m_completed
    m.Serve.Session.m_rejected m.Serve.Session.m_refused
    m.Serve.Session.m_failed;
  row "  throughput %.2f req/s  p95 submit-to-running %.1f ms  migrations %d \
       (p95 freeze %.1f ms)"
    m.Serve.Session.m_throughput_per_sec
    (Stats.Summary.percentile m.Serve.Session.m_submit_to_running_ms 95.)
    m.Serve.Session.m_migrations
    (if Stats.Summary.count m.Serve.Session.m_freeze_ms = 0 then 0.
     else Stats.Summary.percentile m.Serve.Session.m_freeze_ms 95.);
  metric "serve_throughput_per_sec" m.Serve.Session.m_throughput_per_sec;
  metric "serve_p95_submit_to_running_ms"
    (Stats.Summary.percentile m.Serve.Session.m_submit_to_running_ms 95.);
  metric "serve_migrations" (float_of_int m.Serve.Session.m_migrations);
  detail "serve" (Serve.Session.metrics_to_json s)

(* {1 E-serve-pods: scale-out serve through pod-sharded placement} *)

(* The scale-out claim behind the Placement redesign: a four-figure
   workstation pool absorbing a three-figure arrival rate. Flat
   first-responder multicast would put every manager on every query's
   bid path (~1024 replies per selection); pod sharding caps the
   fan-out at one 32-host pod, the predictive tier steers queries away
   from pods about to saturate using the gossiped load summaries, and
   the autoscaler retargets the admission cap from smoothed rate and
   service time. Committed to BENCH_serve.json: the events/s number
   feeds the regression gate and the queue-wait percentiles document
   that the rate was absorbed, not queued without bound. *)
let serve_pods () =
  let duration = if !quick then 10. else 30. in
  let ws = 1024 and rate = 110. and pod_size = 32 in
  banner
    (Printf.sprintf
       "E-serve-pods: scale-out serve, %d workstations in %d-host pods, %g \
        req/s for %g simulated seconds (predictive placement + autoscaler)"
       ws pod_size rate duration);
  (* The paper's peripherals cap a cluster at a couple dozen jobs/s no
     matter how many workstations join: the V bulk protocol's 2.1 ms
     per-frame CPU means ~0.47 MB/s per transfer and the file server's
     300 us/KB media is similar. A service tier three decades on gets a
     1 Gbit fabric, microsecond per-frame protocol cost, and solid-state
     storage — so the bench measures the placement and autoscaling
     machinery rather than 1985's peripherals. *)
  let cfg =
    {
      Config.default with
      Config.placement = Config.Load_predictive { pod_size; alpha = 0.3 };
      os =
        {
          Os_params.default with
          (* ~20 us kernel IPC instead of the 68010's ~500 us: the file
             server answers ~45 requests per job, so 1985's per-message
             cost alone caps the whole cluster near 35 jobs/s. *)
          Os_params.local_op = Time.of_us 20;
          bulk_pacing =
            { Transfer.data_frame_bytes = 1024; per_frame_cpu = Time.of_us 10 };
        };
      (* The paper's 23 ms host-selection latency is candidacy
         processing on a 10 MHz pm — at 100 queries/s it would also be
         the bottleneck (a manager answers bids serially). *)
      candidacy_delay = Time.of_ms 2.;
      candidacy_jitter = Time.of_ms 1.;
    }
  in
  let net_config =
    {
      Ethernet.default_config with
      Ethernet.bandwidth_bytes_per_sec = 125_000_000;
    }
  in
  let cl =
    mk_cluster ~seed:1985 ~workstations:ws ~cfg ~net_config ~disk_us_per_kb:3
      ()
  in
  let params =
    {
      Serve.Session.default_params with
      Serve.Session.arrivals = Serve.Session.Poisson rate;
      duration = sec duration;
      max_in_flight = 512;
      queue_limit = 2048;
      autoscale =
        Some
          {
            Serve.Session.default_autoscale with
            Serve.Session.au_min = 64;
            au_max = 2048;
          };
    }
  in
  let s = Serve.Session.create ~params cl in
  Serve.Session.drain s;
  let m = Serve.Session.metrics s in
  let pct su p =
    if Stats.Summary.count su = 0 then 0. else Stats.Summary.percentile su p
  in
  row "  submitted %d  completed %d  rejected %d  shed %d  failed %d  stuck %d"
    m.Serve.Session.m_submitted m.Serve.Session.m_completed
    m.Serve.Session.m_rejected m.Serve.Session.m_shed
    m.Serve.Session.m_failed m.Serve.Session.m_stuck;
  row "  throughput %.1f req/s  queue-wait p50/p95 %.0f/%.0f ms  \
       submit->running p95 %.0f ms"
    m.Serve.Session.m_throughput_per_sec
    (pct m.Serve.Session.m_queue_wait_ms 50.)
    (pct m.Serve.Session.m_queue_wait_ms 95.)
    (pct m.Serve.Session.m_submit_to_running_ms 95.);
  row "  placement %s: %d selection(s), %d timeout(s), %d credit shed(s)"
    m.Serve.Session.m_placement_policy m.Serve.Session.m_placement_selections
    m.Serve.Session.m_placement_timeouts m.Serve.Session.m_credit_sheds;
  row "  autoscaler cap %d (min %d, max %d) over %d scale event(s)"
    m.Serve.Session.m_cap_final m.Serve.Session.m_cap_min
    m.Serve.Session.m_cap_max m.Serve.Session.m_scale_events;
  metric "serve_pods_throughput_per_sec" m.Serve.Session.m_throughput_per_sec;
  metric "serve_pods_p95_queue_wait_ms"
    (pct m.Serve.Session.m_queue_wait_ms 95.);
  metric "serve_pods_selections"
    (float_of_int m.Serve.Session.m_placement_selections);
  metric "serve_pods_cap_final" (float_of_int m.Serve.Session.m_cap_final);
  detail "serve-pods" (Serve.Session.metrics_to_json s)

(* {1 E-chaos: correlated failure + overload, absorbed gracefully} *)

(* Robustness headline: a rack crash, a partition that heals, and
   flaky-host churn land on a session already pushed into brownout-level
   load — with the failure detector steering placement, per-strategy
   freeze/transfer budgets bounding every migration, a cluster-wide
   re-exec budget capping the post-crash storm, and the invariant
   monitors (including the freeze-budget monitor) watching the whole
   trace. The bar: zero requests leak, zero invariants break, and the
   detector's transition/false-suspicion counts are reported. Every
   printed number is virtual-time or event-count based, so stdout is
   byte-identical for any [-j]. *)
let chaos () =
  let duration = if !quick then 30. else 60. in
  banner
    (Printf.sprintf
       "E-chaos: rack crash + partition-then-heal + flaky churn under \
        brownout-level load, 10 workstations (4 bridged), %g simulated \
        seconds" duration);
  let plan =
    ok "fault plan"
      (Result.map_error
         (fun m -> m)
         (Faults.parse
            "crashrack:ws2+ws3+ws4@8;reboot:ws2@16;reboot:ws3@17.5;\
             reboot:ws4@19;partition@25-33;flaky:ws7@38-48"))
  in
  let cfg = Config.with_default_budgets Config.default in
  let cl =
    mk_cluster ~seed:7070 ~workstations:10 ~bridged:4 ~cfg ~faults:plan
      ~trace:true ()
  in
  ignore (Cluster.enable_health cl);
  let mon = Monitors.attach (Cluster.tracer cl) in
  let params =
    {
      Serve.Session.default_params with
      Serve.Session.arrivals = Serve.Session.Poisson 2.;
      duration = sec duration;
      max_in_flight = 8;
      queue_limit = 12;
      balancer_interval = Some (sec 2.);
      snapshot_every = Some (sec 5.);
      reexec_attempts = 2;
      reexec_budget = Some 32;
      slo_shed_multiple = Some 3.;
      drain_grace = sec 60.;
    }
  in
  let s = Serve.Session.create ~params cl in
  Serve.Session.drain s;
  let m = Serve.Session.metrics s in
  let h =
    match Cluster.health cl with Some h -> h | None -> assert false
  in
  row
    "  submitted %d  completed %d  rejected %d  shed %d  refused %d  failed \
     %d  stuck %d  (still in flight at drain: %d)"
    m.Serve.Session.m_submitted m.Serve.Session.m_completed
    m.Serve.Session.m_rejected m.Serve.Session.m_shed
    m.Serve.Session.m_refused m.Serve.Session.m_failed
    m.Serve.Session.m_stuck m.Serve.Session.m_outstanding;
  row "  brownout: %d span%s, %.0f virtual ms; re-execs %d (budget 32)"
    m.Serve.Session.m_brownout_spans
    (if m.Serve.Session.m_brownout_spans = 1 then "" else "s")
    m.Serve.Session.m_brownout_ms m.Serve.Session.m_reexecs;
  row
    "  detector: %d probes, %d transitions, %d false suspicion%s; dead at \
     end [%s], suspect [%s]"
    (Health.probes h) (Health.transitions h)
    (Health.false_suspicions h)
    (if Health.false_suspicions h = 1 then "" else "s")
    (String.concat " " (Health.dead_hosts h))
    (String.concat " " (Health.suspect_hosts h));
  (match Cluster.faults cl with
  | None -> ()
  | Some f ->
      row "  fault kinds fired: %s"
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s=%d" k n)
              (Faults.fired_counts f))));
  row "  invariant monitors over %d events: %s" (Monitors.events_seen mon)
    (if Monitors.ok mon then "all clean (freeze budget included)"
     else
       Printf.sprintf "%d VIOLATION(S)"
         (List.length (Monitors.violations mon) + Monitors.dropped mon));
  if not (Monitors.ok mon) then
    List.iter
      (fun v -> row "%s" (Format.asprintf "%a" Monitors.pp_violation v))
      (Monitors.violations mon);
  row
    "shape: the rack crash orphans a burst of requests that the re-exec \
     budget re-places without a storm; brownout sheds at the door instead \
     of queueing past the SLO; the detector steers the balancer and every \
     migration commits inside its declared freeze budget";
  metric "chaos_completed" (float_of_int m.Serve.Session.m_completed);
  metric "chaos_shed" (float_of_int m.Serve.Session.m_shed);
  metric "chaos_stuck" (float_of_int m.Serve.Session.m_stuck);
  metric "chaos_reexecs" (float_of_int m.Serve.Session.m_reexecs);
  metric "chaos_brownout_spans"
    (float_of_int m.Serve.Session.m_brownout_spans);
  metric "detector_transitions" (float_of_int (Health.transitions h));
  metric "detector_false_suspicions"
    (float_of_int (Health.false_suspicions h));
  metric "monitor_violations"
    (float_of_int (List.length (Monitors.violations mon) + Monitors.dropped mon));
  detail "chaos" (Serve.Session.metrics_to_json s)

(* {1 E-strategies: copy-discipline comparison (Section 3's argument)} *)

(* The paper's case for pre-copying, run head to head: freeze-and-copy
   maximizes the freeze window, copy-on-reference minimizes it but
   leaves the source serving page faults after commit (the residual
   dependency Section 5 holds against Accent/Demos). Residual messages
   are counted from the kernels' [Page_fault_serves] counter, and every
   reported number is virtual-time or event-count based, so the table
   and metrics are byte-identical for any [-j]. *)
let strategies () =
  banner
    "E-strategies: pre-copy vs freeze-and-copy vs copy-on-reference (cc68, \
     run to completion after the move)";
  row "  %-18s %4s %11s %9s %14s %12s %14s" "strategy" "rep" "freeze ms"
    "total s" "moved KB" "faultin KB" "residual msgs";
  let reps = if !quick then 2 else 4 in
  let disciplines =
    [ Protocol.Precopy; Protocol.Freeze_and_copy; Protocol.Copy_on_reference ]
  in
  let cells =
    List.concat_map
      (fun s -> List.init reps (fun rep -> (s, rep)))
      disciplines
  in
  let results =
    par
      (List.map
         (fun (strategy, rep) () ->
           let cl = mk_cluster ~seed:(8300 + rep) ~workstations:6 () in
           let outcome =
             Experiment.migrate_program cl ~strategy ~run_for:(sec 3.)
               ~prog:"cc68" ()
           in
           (strategy, rep, outcome, Cluster.sum_stat cl Kernel.Page_fault_serves))
         cells)
  in
  let agg = Hashtbl.create 8 in
  List.iter
    (fun (strategy, rep, outcome, residual_msgs) ->
      let name = Protocol.strategy_name strategy in
      match outcome with
      | Error e -> row "  %-18s %4d failed: %s" name rep e
      | Ok o ->
          let freeze = Time.to_ms (Protocol.freeze_span o) in
          let total = Time.to_sec o.Protocol.m_total in
          row "  %-18s %4d %11.1f %9.2f %14d %12d %14d" name rep freeze total
            ((Protocol.precopied_bytes o + o.Protocol.m_final_bytes) / 1024)
            (o.Protocol.m_faultin_bytes / 1024)
            residual_msgs;
          let f, t, r, n =
            Option.value (Hashtbl.find_opt agg name) ~default:(0., 0., 0, 0)
          in
          Hashtbl.replace agg name
            (f +. freeze, t +. total, r + residual_msgs, n + 1))
    results;
  List.iter
    (fun strategy ->
      let name = Protocol.strategy_name strategy in
      match Hashtbl.find_opt agg name with
      | None | Some (_, _, _, 0) -> ()
      | Some (f, t, r, n) ->
          let fn = float_of_int n in
          metric (Printf.sprintf "freeze_ms:%s" name) (f /. fn);
          metric (Printf.sprintf "total_s:%s" name) (t /. fn);
          metric
            (Printf.sprintf "residual_msgs:%s" name)
            (float_of_int r /. fn))
    disciplines;
  row
    "shape: freeze-and-copy suspends the program for the whole copy; \
     copy-on-reference unfreezes almost immediately but keeps the source \
     answering page faults after commit — the paper's residual dependency; \
     pre-copy gets the short freeze with zero residual messages"

(* {1 E-stress: the scenario library under open-loop load} *)

(* One open-loop cell per {!Scenario.Library} family: each runs the
   family's serve shape at pinned seeds with the full monitor bundle
   attached and fails the bench on any invariant violation or leaked
   request. Every printed number is an event count or virtual-time
   quantity, so stdout is byte-identical for any [-j]; the committed
   BENCH_stress.json floors feed the same events/s regression gate as
   the main profile (DESIGN.md §4h/§4i). *)
let stress entry () =
  let name = Scenario.Library.name entry in
  banner
    (Printf.sprintf "E-stress:%s — %s" name (Scenario.Library.stresses entry));
  let reps = if !quick then 3 else 6 in
  let seeds = List.init reps (fun rep -> 41 + (17 * rep)) in
  let results =
    par
      (List.map
         (fun seed () ->
           let sv = Scenario.Library.serve entry ~seed in
           let o, cl = Scenario.run_serve_cluster sv in
           (seed, sv, o, cl))
         seeds)
  in
  let bad = ref 0 in
  List.iter
    (fun (seed, sv, o, cl) ->
      register cl;
      let viol =
        List.length o.Scenario.so_violations + o.Scenario.so_violations_dropped
      in
      let counts kvs =
        String.concat " "
          (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) kvs)
      in
      row
        "  seed %-3d submitted %4d  completed %4d  shed %3d  stuck %d  \
         violations %d  (%d events)"
        seed o.Scenario.so_submitted o.Scenario.so_completed
        o.Scenario.so_shed o.Scenario.so_stuck viol o.Scenario.so_events;
      row "           faults [%s]  migrations [%s]"
        (counts o.Scenario.so_coverage.Coverage.fired)
        (counts o.Scenario.so_coverage.Coverage.strategies);
      if viol > 0 || o.Scenario.so_stuck > 0 then begin
        incr bad;
        List.iter
          (fun v -> row "%s" (Format.asprintf "%a" Monitors.pp_violation v))
          o.Scenario.so_violations;
        row "  REPLAY: %s" (Scenario.replay_serve_hint sv)
      end)
    results;
  let tot f =
    List.fold_left (fun acc (_, _, o, _) -> acc + f o) 0 results
  in
  metric
    (Printf.sprintf "stress_submitted:%s" name)
    (float_of_int (tot (fun o -> o.Scenario.so_submitted)));
  metric
    (Printf.sprintf "stress_completed:%s" name)
    (float_of_int (tot (fun o -> o.Scenario.so_completed)));
  metric
    (Printf.sprintf "stress_shed:%s" name)
    (float_of_int (tot (fun o -> o.Scenario.so_shed)));
  if !bad > 0 then begin
    Printf.eprintf
      "stress:%s: %d run(s) violated invariants or leaked requests\n%!" name
      !bad;
    exit 1
  end

(* {1 E-alloc: minor-heap words per event (allocation regressions)} *)

(* Wall-clock benches miss regressions the GC absorbs; this experiment
   counts minor-heap words allocated per engine event on the core hot
   paths, so an accidental box/closure on the schedule/fire/emit path
   shows up as a number even when throughput noise hides it. The raw
   engines here are registered, so the events they fire (warm-up and
   measured passes alike) put the cell under the events/s gate like any
   other; the allocation counts are deterministic and are its real
   signal. *)
let alloc () =
  banner "E-alloc: minor-heap words allocated per event (GC pressure)";
  let nop () = () in
  let words_per ~events f =
    (* One throwaway pass warms internal pools/rings so steady-state
       cost, not first-growth cost, is measured. *)
    f ();
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int events
  in
  let n = 100_000 in
  let report name w =
    row "  %-40s %8.2f minor words/event" name w;
    metric ("minor_words_per_event:" ^ name) w
  in
  (* Handle-free scheduling: the engine's zero-allocation fast path.
     Instants are relative to the clock so the warm-up pass and the
     measured pass schedule identically. *)
  let e = Engine.create () in
  register_engine e;
  report "engine post+fire"
    (words_per ~events:n (fun () ->
         for i = 1 to n do
           Engine.post_after e (Time.of_us i) nop
         done;
         Engine.run e));
  (* Cancellable scheduling: pays only for the 3-field handle. *)
  let e = Engine.create () in
  register_engine e;
  report "engine schedule+fire (handle)"
    (words_per ~events:n (fun () ->
         for i = 1 to n do
           ignore (Engine.schedule_after e (Time.of_us i) nop)
         done;
         Engine.run e));
  (* Tracing on, no subscriber: ring writes only, no record boxing. *)
  let e = Engine.create () in
  register_engine e;
  let trc = Tracer.create ~capacity:1024 e in
  let ev =
    Cpu.Slice { owner = 1; foreground = true; span = Time.of_us 1 }
  in
  report "tracer emit (on, no subscriber)"
    (words_per ~events:n (fun () ->
         for _ = 1 to n do
           Tracer.emit trc ev
         done));
  (* Untraced broadcast delivery: frame fan-out through the engine. *)
  let e = Engine.create () in
  register_engine e;
  let net : unit Ethernet.t = Ethernet.create e (Rng.create 7) in
  for i = 1 to 32 do
    ignore (Ethernet.attach net (Addr.of_int i) (fun _ -> ()))
  done;
  let frames = 2_000 in
  report "ethernet broadcast (per delivery)"
    (words_per
       ~events:(frames * 31)
       (fun () ->
         for _ = 1 to frames do
           Ethernet.send net (Frame.broadcast ~src:(Addr.of_int 1) ~bytes:64 ())
         done;
         Engine.run e))

(* {1 E-layers: per-layer ns/event breakdown (diagnostic)} *)

(* Times each layer of the stack in isolation so a throughput regression
   can be attributed: raw engine dispatch, the effect/suspension
   machinery ([Proc.sleep] loops), the CPU scheduler's slice loop,
   multicast delivery, a kernel IPC ping loop on a long-lived cluster
   (no per-iteration boot), and one whole tex migration from cluster
   boot. Run explicitly as [bench layers]; not part of the default
   profile. *)
let layers () =
  banner "E-layers: per-layer cost breakdown (ns per engine event)";
  let time_events label f =
    let t0 = Unix.gettimeofday () in
    let events = f () in
    let wall = Unix.gettimeofday () -. t0 in
    row "  %-44s %8.1f ns/event (%d events)" label
      (wall *. 1e9 /. float_of_int events)
      events;
    metric ("ns_per_event:" ^ label) (wall *. 1e9 /. float_of_int events)
  in
  let nop () = () in
  time_events "engine post+fire" (fun () ->
      let e = Engine.create () in
      let n = 500_000 in
      for i = 1 to n do
        Engine.post_after e (Time.of_us i) nop
      done;
      Engine.run e;
      Engine.events_fired e);
  time_events "proc sleep loop (effects + suspension)" (fun () ->
      let e = Engine.create () in
      ignore
        (Proc.spawn e ~name:"sleeper" (fun () ->
             for _ = 1 to 200_000 do
               Proc.sleep e (Time.of_us 1)
             done));
      Engine.run e;
      Engine.events_fired e);
  time_events "cpu slice loop (1ms quantum)" (fun () ->
      let e = Engine.create () in
      let cpu = Cpu.create e ~quantum:(Time.of_ms 1.) in
      ignore
        (Proc.spawn e ~name:"worker" (fun () ->
             Cpu.compute cpu ~priority:Cpu.Foreground (Time.of_sec 100.)));
      Engine.run e;
      Engine.events_fired e);
  (* Multicast fan-out through the cached recipient rosters: no
     per-frame rebuild or sort of the station list. *)
  time_events "ethernet multicast (16/32 subscribed)" (fun () ->
      let e = Engine.create () in
      let net : unit Ethernet.t = Ethernet.create e (Rng.create 7) in
      for i = 0 to 31 do
        let s = Ethernet.attach net (Addr.of_int (i + 1)) (fun _ -> ()) in
        if i land 1 = 0 then Ethernet.subscribe s 9
      done;
      for _ = 1 to 5_000 do
        Ethernet.send net
          (Frame.multicast ~src:(Addr.of_int 1) ~group:9 ~bytes:64 ())
      done;
      Engine.run e;
      Engine.events_fired e);
  time_events "kernel IPC ping loop (resident cluster)" (fun () ->
      let cl = Cluster.create ~seed:11 ~workstations:2 () in
      ignore
        (Cluster.user cl ~ws:0 ~name:"pinger" (fun k self ->
             let ks =
               Ids.kernel_server_of (Logical_host.id (Kernel.host_lh k))
             in
             for _ = 1 to 20_000 do
               ignore (Kernel.send k ~src:self ~dst:ks (Message.make Kernel.Ks_ping))
             done));
      Cluster.run cl ~until:(Time.of_sec 1000.);
      Engine.events_fired (Cluster.engine cl));
  time_events "full tex migration (cluster boot included)" (fun () ->
      let cl = Cluster.create ~seed:4 ~workstations:4 () in
      ignore (ok "migrate" (Experiment.migrate_program cl ~prog:"tex" ()));
      Engine.events_fired (Cluster.engine cl))

(* {1 E-engine-core: raw dispatch throughput}

   The tentpole number: how fast the pooled, flat-representation engine
   dispatches events with nothing stacked on top. Two shapes bracket
   real workloads: a burst that grows the heap to N then drains it
   (worst-case sift depth), and a steady-state population of
   self-reposting timers (the shape of a running cluster: bounded heap,
   sustained churn). *)

let engine_core () =
  banner "E-engine-core: raw dispatch throughput (pooled heap, handle-free)";
  let nop () = () in
  let time label events f =
    let t0 = Unix.gettimeofday () in
    f ();
    let wall = Unix.gettimeofday () -. t0 in
    let eps = float_of_int events /. wall in
    row "  %-46s %7.2fM events/s (%6.1f ns/event)" label (eps /. 1e6)
      (wall *. 1e9 /. float_of_int events);
    metric ("events_per_sec:" ^ label) eps
  in
  let burst = if !quick then 500_000 else 2_000_000 in
  let e = Engine.create () in
  register_engine e;
  time "burst: post N, drain (heap grows to N)" burst (fun () ->
      for i = 1 to burst do
        Engine.post_after e (Time.of_us i) nop
      done;
      Engine.run e);
  let timers = 64 in
  let rounds = (if !quick then 3_000_000 else 6_000_000) / timers in
  let e = Engine.create () in
  register_engine e;
  time
    (Printf.sprintf "steady: %d self-reposting timers" timers)
    (timers * rounds)
    (fun () ->
      for t = 1 to timers do
        let remaining = ref rounds in
        let rec tick () =
          decr remaining;
          if !remaining > 0 then Engine.post_after e (Time.of_us t) tick
        in
        Engine.post_after e (Time.of_us t) tick
      done;
      Engine.run e)

(* {1 E-dedup: content-addressed state transfer (DESIGN.md §4k)}

   Two cells, each run with per-host content caches on (4 MiB) and off:

   - pod fan-out: eight workstations launch the same program back to
     back. With caching, the first load's multicast chunk announcement
     warms every host, so relaunches pull zero chunks from the file
     server — the pod pays the paper's 330 ms/100 KB load once.
   - re-migration: a program migrates ws0 -> ws1 and back. The manifest
     exchange self-inserts on the source and the image announcement
     pre-warms the destination, so the return trip ships only pages
     dirtied since — a delta, not the address space.

   All printed numbers are virtual-time or byte-count based, so stdout
   merges byte-identically for any -j. The pod cell's wire-byte
   reduction is a hard floor (>= 5x): the bench fails, not just the
   gate, if dedup stops paying. *)

let dedup_cache_bytes = 4 * 1024 * 1024

let dedup_cfg ~cache =
  if not cache then Config.default
  else
    {
      Config.default with
      Config.os =
        {
          Config.default.Config.os with
          Os_params.content_cache_bytes = dedup_cache_bytes;
        };
    }

let dedup_pod ~cache () =
  let launches = 8 in
  let cl =
    mk_cluster ~seed:1985 ~workstations:launches ~cfg:(dedup_cfg ~cache) ()
  in
  let loads =
    List.init launches (fun ws ->
        match
          Experiment.remote_exec cl ~ws ~target:Remote_exec.Local ~prog:"cc68"
            ()
        with
        | Ok r -> Time.to_ms r.Experiment.er_load
        | Error e ->
            Printf.eprintf "dedup pod launch on ws%d failed: %s\n%!" ws e;
            exit 1)
  in
  let image_bytes =
    File_server.image_file_bytes (Programs.find "cc68").Programs.image
  in
  let wire_bytes =
    if cache then Cluster.sum_stat cl Kernel.Img_chunks_miss * File_server.chunk_bytes
    else launches * image_bytes
  in
  (loads, wire_bytes, Cluster.sum_stat cl Kernel.Img_chunks_hit)

let dedup_remigrate ~cache () =
  let cl = mk_cluster ~seed:2042 ~workstations:4 ~cfg:(dedup_cfg ~cache) () in
  let eng = Cluster.engine cl in
  let result = ref (Error "re-migration cell did not complete") in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match Remote_exec.exec ctx ~prog:"tex" ~target:Remote_exec.Local with
         | Error e -> result := Error ("exec: " ^ e)
         | Ok h -> (
             Proc.sleep eng (sec 3.);
             let shipped0 = Cluster.sum_stat cl Kernel.Xfer_bytes_shipped in
             match
               Remote_exec.migrate_program ~pm:h.Remote_exec.h_pm ~dest:"ws1"
                 ctx h
             with
             | Error e ->
                 result :=
                   Error
                     ("first migration: " ^ Remote_exec.migrate_error_message e)
             | Ok o1 -> (
                 Proc.sleep eng (sec 1.);
                 let shipped1 = Cluster.sum_stat cl Kernel.Xfer_bytes_shipped in
                 let pm =
                   Program_manager.pid
                     (Option.get (Cluster.find_workstation cl o1.Protocol.m_dest))
                       .Cluster.ws_pm
                 in
                 match
                   Remote_exec.migrate_program ~pm ~dest:h.Remote_exec.h_host
                     ctx h
                 with
                 | Error e ->
                     result :=
                       Error
                         ("return migration: "
                         ^ Remote_exec.migrate_error_message e)
                 | Ok o2 ->
                     let shipped2 = Cluster.sum_stat cl Kernel.Xfer_bytes_shipped in
                     (* With caching off the stats stay zero and the wire
                        cost of a migration is everything it copied. *)
                     let wire o lo hi =
                       if cache then hi - lo
                       else Protocol.precopied_bytes o + o.Protocol.m_final_bytes
                     in
                     result :=
                       Ok
                         ( wire o1 shipped0 shipped1,
                           wire o2 shipped1 shipped2,
                           Time.to_ms o2.Protocol.m_total )))));
  Cluster.run cl ~until:(sec 60.);
  match !result with
  | Ok r -> r
  | Error e ->
      Printf.eprintf "dedup re-migration (cache=%b) failed: %s\n%!" cache e;
      exit 1

let dedup () =
  banner
    "E-dedup: content-addressed transfer — pod image fan-out and \
     re-migration deltas (DESIGN.md §4k)";
  match
    par
      [
        (fun () -> `Pod (dedup_pod ~cache:true ()));
        (fun () -> `Pod (dedup_pod ~cache:false ()));
        (fun () -> `Remig (dedup_remigrate ~cache:true ()));
        (fun () -> `Remig (dedup_remigrate ~cache:false ()));
      ]
  with
  | [
   `Pod (loads_on, wire_on, hits);
   `Pod (loads_off, wire_off, _);
   `Remig (r1_on, r2_on, total_on);
   `Remig (r1_off, r2_off, total_off);
  ] ->
      let mean = function
        | [] -> 0.
        | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
      in
      row "  pod fan-out: 8 launches of cc68, caches %s" "on vs off";
      row "    cold load %.0f ms, relaunch mean %.1f ms (cached: %d chunk \
           hits); plain relaunch mean %.0f ms"
        (List.hd loads_on)
        (mean (List.tl loads_on))
        hits
        (mean (List.tl loads_off));
      let reduction = float_of_int wire_off /. float_of_int (max 1 wire_on) in
      row "    bytes on wire: %d KB cached vs %d KB plain (%.1fx reduction)"
        (wire_on / 1024) (wire_off / 1024) reduction;
      row "  re-migration: tex ws0 -> ws1 -> ws0, caches on vs off";
      row "    outbound %d KB vs %d KB; return %d KB vs %d KB" (r1_on / 1024)
        (r1_off / 1024) (r2_on / 1024) (r2_off / 1024);
      row "    return-trip total %.0f ms cached vs %.0f ms plain" total_on
        total_off;
      metric "pod_cold_load_ms" (List.hd loads_on);
      metric "pod_relaunch_load_ms" (mean (List.tl loads_on));
      metric "pod_wire_kb_cached" (float_of_int (wire_on / 1024));
      metric "pod_wire_kb_plain" (float_of_int (wire_off / 1024));
      metric "pod_wire_reduction_x" reduction;
      metric "remig_return_wire_kb_cached" (float_of_int (r2_on / 1024));
      metric "remig_return_wire_kb_plain" (float_of_int (r2_off / 1024));
      metric "remig_return_total_ms_cached" total_on;
      metric "remig_return_total_ms_plain" total_off;
      if reduction < 5. then begin
        Printf.eprintf
          "E-dedup FAIL: pod wire-byte reduction %.1fx is below the 5x \
           floor\n\
           %!"
          reduction;
        exit 1
      end;
      if r2_on >= r2_off then begin
        Printf.eprintf
          "E-dedup FAIL: cached return migration shipped %d bytes, not \
           fewer than the plain %d\n\
           %!"
          r2_on r2_off;
        exit 1
      end
  | _ -> assert false

(* {1 Driver} *)

(* A cell's profile decides when it runs: the bare run (and the pinned
   [--quick] profile) is every [Default] cell, [Stress] cells are the
   scenario-library family, and [Diagnostic] cells run only by name.
   The gate runs every [Default] and [Stress] cell. *)
type profile = Default | Diagnostic | Stress

type cell = { name : string; run : unit -> unit; profile : profile }

let cells =
  List.map
    (fun (name, run) -> { name; run; profile = Default })
    [
      ("engine-core", engine_core);
      ("table-4-1", table_4_1);
      ("exec-cost", exec_cost);
      ("copy-rate", copy_rate);
      ("kernel-state", kernel_state);
      ("freeze-time", freeze_time);
      ("vm-flush", vm_flush);
      ("overheads", overheads);
      ("space-cost", space_cost);
      ("usage", usage);
      ("serve", serve);
      ("serve-pods", serve_pods);
      ("chaos", chaos);
      ("strategies", strategies);
      ("dedup", dedup);
      ("precopy-ablation", precopy_ablation);
      ("loss-ablation", loss_ablation);
      ("scale", scale);
      ("rebind-ablation", rebind_ablation);
      ("balance-ablation", balance_ablation);
      ("recovery", recovery);
      ("internet", internet);
      ("alloc", alloc);
    ]
  @ [ { name = "layers"; run = layers; profile = Diagnostic } ]
  @ List.map
      (fun e ->
        {
          name = "stress:" ^ Scenario.Library.name e;
          run = stress e;
          profile = Stress;
        })
      Scenario.Library.all

let profile_name = function
  | Default -> "default"
  | Diagnostic -> "diagnostic"
  | Stress -> "stress"

(* A name selects its cell, or every cell of the family [NAME:*]. *)
let select name =
  match
    List.filter
      (fun c ->
        String.equal c.name name
        || String.starts_with ~prefix:(name ^ ":") c.name)
      cells
  with
  | [] ->
      Printf.eprintf "unknown cell %S; --list shows every cell\n" name;
      exit 2
  | cs -> cs

type report = {
  r_name : string;
  r_wall : float;
  r_events : int;
  r_metrics : (string * float) list;
  r_details : (string * Json_min.t) list;
  r_output : string;  (** Everything the cell printed. *)
  r_par : bool;  (** Whether the cell called [par]. *)
}

let run_cell c =
  ignore (drain_events ());
  metrics := [];
  details := [];
  Buffer.clear out;
  used_par := false;
  let t0 = Unix.gettimeofday () in
  c.run ();
  let wall = Unix.gettimeofday () -. t0 in
  {
    r_name = c.name;
    r_wall = wall;
    r_events = drain_events ();
    r_metrics = List.rev !metrics;
    r_details = List.rev !details;
    r_output = Buffer.contents out;
    r_par = !used_par;
  }

let events_per_sec r =
  if r.r_wall > 0. then float_of_int r.r_events /. r.r_wall else 0.

let json_report reports =
  let open Json_min in
  Obj
    [
      ("schema", Str "vsystem-bench/1");
      ("quick", Bool !quick);
      ("jobs", Num (float_of_int !jobs));
      ( "experiments",
        Arr
          (List.map
             (fun r ->
               Obj
                 [
                   ("name", Str r.r_name);
                   ("wall_s", Num r.r_wall);
                   ("events", Num (float_of_int r.r_events));
                   ("events_per_sec", Num (events_per_sec r));
                   ( "metrics",
                     Obj (List.map (fun (k, v) -> (k, Num v)) r.r_metrics) );
                   ("details", Obj r.r_details);
                 ])
             reports) );
    ]

(* Validate a results document ([src] names it in messages) and return
   its per-cell (name, events, events_per_sec) triples: the same parse
   checks the fresh report and loads the committed floors. *)
let parse_report ~src contents =
  let fail msg =
    Printf.eprintf "%s: %s\n%!" src msg;
    exit 1
  in
  match Json_min.parse contents with
  | Error m -> fail ("JSON parse error: " ^ m)
  | Ok v -> (
      (match Json_min.member "schema" v with
      | Some (Json_min.Str "vsystem-bench/1") -> ()
      | _ -> fail "missing or unexpected schema");
      match Json_min.member "experiments" v with
      | Some (Json_min.Arr (_ :: _ as exps)) ->
          let triples =
            List.map
              (fun e ->
                let num k =
                  match Json_min.member k e with
                  | Some (Json_min.Num x) -> x
                  | _ ->
                      fail (Printf.sprintf "experiment missing numeric %S" k)
                in
                let name =
                  match Json_min.member "name" e with
                  | Some (Json_min.Str s) -> s
                  | _ -> fail "experiment missing name"
                in
                let _ = num "wall_s" in
                let events = num "events" in
                let eps = num "events_per_sec" in
                (match Json_min.member "metrics" e with
                | Some (Json_min.Obj _) -> ()
                | _ -> fail "experiment missing metrics object");
                (name, events, eps))
              exps
          in
          Printf.printf "%s: OK (%d experiments)\n%!" src (List.length exps);
          triples
      | _ -> fail "missing experiments array")

(* {2 Regression gate}

   [--gate DIR] is the whole runtest check. It runs every [Default] and
   [Stress] cell once in the pinned profile ([--quick -j 1]), re-runs
   at [-j 2] each cell that called [par] and requires byte-identical
   output, round-trips the fresh report through [parse_report], and
   compares each cell's events/s against the one committed
   DIR/BENCH_*.json file that names it, failing on a drop of more than
   [tolerance_pct]. Cells under [min_gate_events] on either side are
   reported but never gated, so wall-clock noise on sub-100ms cells
   cannot flake the build. *)
let tolerance_pct = 25.
let min_gate_events = 100_000.

(* Every committed floor by cell name. A name in two files is an error:
   each cell's floor has exactly one home. *)
let committed_floors dir =
  let floors = Hashtbl.create 64 in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.iter (fun file ->
         let path = Filename.concat dir file in
         let ic = open_in_bin path in
         let contents = really_input_string ic (in_channel_length ic) in
         close_in ic;
         List.iter
           (fun (name, events, eps) ->
             match Hashtbl.find_opt floors name with
             | Some (other, _, _) ->
                 Printf.eprintf "gate: cell %S is named in both %s and %s\n%!"
                   name other file;
                 exit 1
             | None -> Hashtbl.replace floors name (file, events, eps))
           (parse_report ~src:path contents));
  floors

let gate ~dir floors ran =
  let failures = ref 0 and gated = ref 0 in
  let line ?(failed = false) name fmt =
    Printf.ksprintf
      (fun s ->
        if failed then incr failures;
        Printf.printf "gate: %-22s %s\n%!" name s)
      fmt
  in
  ignore
    (parse_report ~src:"fresh report"
       (Json_min.to_string (json_report (List.map snd ran))));
  List.iter
    (fun (_, r) ->
      let events = float_of_int r.r_events and eps = events_per_sec r in
      match Hashtbl.find_opt floors r.r_name with
      | None ->
          line ~failed:true r.r_name
            "FAIL  no committed BENCH_*.json names this cell"
      | Some (file, base_events, base_eps) ->
          if
            base_events < min_gate_events
            || events < min_gate_events || base_eps <= 0.
          then
            line r.r_name "below %.0fk events, not gated"
              (min_gate_events /. 1000.)
          else begin
            incr gated;
            let delta = 100. *. ((eps /. base_eps) -. 1.) in
            if eps < base_eps *. (1. -. (tolerance_pct /. 100.)) then
              line ~failed:true r.r_name
                "FAIL  %.2fM ev/s vs %s %.2fM (%+.0f%%, tolerance -%.0f%%)"
                (eps /. 1e6) file (base_eps /. 1e6) delta tolerance_pct
            else
              line r.r_name "ok    %.2fM ev/s vs %s %.2fM (%+.0f%%)"
                (eps /. 1e6) file (base_eps /. 1e6) delta
          end)
    ran;
  let par_cells = List.filter (fun (_, r) -> r.r_par) ran in
  jobs := 2;
  echo := false;
  List.iter
    (fun (c, r) ->
      if not (String.equal (run_cell c).r_output r.r_output) then
        line ~failed:true c.name "FAIL  output differs between -j 1 and -j 2")
    par_cells;
  Printf.printf "gate: -j 1 vs -j 2 byte-compared on %d cell(s): %s\n%!"
    (List.length par_cells)
    (String.concat " " (List.map (fun (c, _) -> c.name) par_cells));
  if !failures > 0 then begin
    Printf.eprintf "gate: %d failure(s) against %s/BENCH_*.json\n%!" !failures
      dir;
    exit 1
  end
  else
    Printf.printf "gate: %d cell(s) ran, %d gated within %.0f%% of %s/BENCH_*.json\n%!"
      (List.length ran) !gated tolerance_pct dir

let () =
  let json_out = ref None and gate_dir = ref None in
  let usage_and_exit code =
    Printf.eprintf
      "usage: main.exe [-j N] [--quick] [--json FILE] [--gate DIR] [--list] \
       [CELL...]\n";
    exit code
  in
  let rec parse_args names = function
    | [] -> List.rev names
    | "--quick" :: rest ->
        quick := true;
        parse_args names rest
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse_args names rest
    | "--gate" :: dir :: rest ->
        gate_dir := Some dir;
        parse_args names rest
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse_args names rest
        | _ -> usage_and_exit 2)
    | [ ("--json" | "--gate" | "-j") ] -> usage_and_exit 2
    | "--list" :: _ ->
        List.iter
          (fun c -> Printf.printf "%-24s %s\n" c.name (profile_name c.profile))
          cells;
        exit 0
    | ("--help" | "-h") :: _ -> usage_and_exit 0
    | name :: rest -> parse_args (name :: names) rest
  in
  let names = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let chosen =
    match (!gate_dir, names) with
    | Some _, [] ->
        quick := true;
        jobs := 1;
        List.filter (fun c -> c.profile <> Diagnostic) cells
    | Some _, _ :: _ -> usage_and_exit 2
    | None, [] ->
        Printf.printf
          "Reproducing the evaluation of \"Preemptable Remote Execution \
           Facilities for the V-System\" (SOSP 1985)\n";
        List.filter (fun c -> c.profile = Default) cells
    | None, names -> List.concat_map select names
  in
  (* Committed floors load before any cell runs, so a malformed or
     duplicated entry fails in milliseconds. *)
  let floors = Option.map (fun dir -> (dir, committed_floors dir)) !gate_dir in
  let ran = List.map (fun c -> (c, run_cell c)) chosen in
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Json_min.to_string (json_report (List.map snd ran)));
      close_out oc;
      Printf.eprintf "wrote %s\n%!" file)
    !json_out;
  Option.iter (fun (dir, floors) -> gate ~dir floors ran) floors
