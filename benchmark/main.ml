(* The repo benchmark: one command runs a workload (or all four, each in
   its own process), times set-up and run from outside, checks the
   outputs, prints every metric by name with its unit, and ends with one
   JSON result line.

     dune exec benchmark/main.exe -- --workload NAME|all --seed N
       [--seconds S] [--trace 0|1] [--json FILE] [--traced FILE] [--smoke]

   --trace 0 (the default) reports the end-to-end metrics, measured
   untraced; --trace 1 (implied by --traced) reruns the workload with
   the cluster tracer and a benchmark-side subscriber on and reports the
   per-layer metrics.

   Host times are medians over the workload's parts, each part's wall
   time scaled by [Hostspeed.reference /. probe], the host-speed probe
   timed around that part: seconds on a host running at reference speed.
   The raw wall times are reported too, as per-layer metrics. *)

let default_seed = 1985

(* Throwaway set-ups timed before each part's own: set-up is cheap, so
   setup_s is a median over many samples spread across the run. *)
let extra_setups = 3

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  trace_file : string option;
  json : string option;
  smoke : bool;
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let write_file file s =
  let oc = open_out file in
  output_string oc s;
  close_out oc

let word_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* {1 The deterministic digest} *)

(* Every deterministic metric, at full precision: a change that only
   speeds up the simulator must leave this line unchanged. *)
let digest (r : Workloads.result) =
  r.Workloads.metrics
  |> List.map (fun (name, _, v) -> Printf.sprintf "%s=%.17g" name v)
  |> List.cons (Printf.sprintf "attempted=%d failed=%d" r.attempted r.failed)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* {1 Measuring one workload} *)

type measured = {
  result : Workloads.result;
  digest : string;
  host : (string * float) list;  (** Host-time and heap metrics. *)
  layer : (string * float) list;  (** Trace-derived per-layer metrics. *)
  checks : (string * bool) list;
  kinds : (string * int) list;
}

let setup (w : Workloads.t) o ~part ~trace ~on_cluster =
  time (fun () -> w.Workloads.setup ~seed:o.seed ~part ~smoke:o.smoke ~trace ~on_cluster)

let events_of (r : Workloads.result) =
  List.fold_left
    (fun acc (n, _, v) -> if String.equal n "sim.events" then int_of_float v else acc)
    1 r.Workloads.metrics

(* One part, set up and run: its outcome and host costs. *)
type part_run = {
  acc : Workloads.acc;
  setup_s : float list;
  run_s : float;
  speed : float;  (** Host probe seconds around the run, averaged. *)
  live_words : int;  (** Live heap the finished part retains. *)
  minor_words : float;
  majors : int;
}

let run_part (w : Workloads.t) o ~part ~trace ~on_cluster =
  let extra =
    if trace then []
    else List.init extra_setups (fun _ -> snd (setup w o ~part ~trace ~on_cluster:ignore))
  in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  (* Smoke runs are too short for host figures to mean anything: they
     skip the probe and read at reference speed. *)
  let probe () = if o.smoke then Hostspeed.reference else Hostspeed.probe () in
  let probe0 = probe () in
  let inst, setup_s = setup w o ~part ~trace ~on_cluster in
  let gc0 = Gc.quick_stat () in
  let (), run_s = time inst.Workloads.run in
  let gc1 = Gc.quick_stat () in
  let probe1 = probe () in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let acc = Workloads.acc () in
  inst.Workloads.finish acc;
  {
    acc;
    setup_s = setup_s :: extra;
    run_s;
    speed = (probe0 +. probe1) /. 2.;
    live_words = live1 - live0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    majors = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let part_digest p = digest (Workloads.result p.acc)

(* Every part once, outcomes pooled. *)
let run_parts w o ~trace ~on_cluster =
  Workloads.create_s := 0.;
  let runs =
    List.init Workloads.parts (fun part -> run_part w o ~part ~trace ~on_cluster)
  in
  let pooled = Workloads.acc () in
  List.iter (fun p -> Workloads.merge pooled p.acc) runs;
  (runs, Workloads.result pooled)

(* Host-time and heap figures of a set of part runs: the end-to-end
   set-up and run times at reference speed, and their wall-clock and
   heap counterparts. *)
let host_metrics ~first all =
  let at_reference p x = x *. Hostspeed.reference /. p.speed in
  [
    ("setup_s", median (List.concat_map (fun p -> List.map (at_reference p) p.setup_s) all));
    ("run_s", median (List.map (fun p -> at_reference p p.run_s) all));
    ("peak_heap_mb", word_mb (Gc.quick_stat ()).Gc.top_heap_words);
    ("sim.wall_setup_s", median (List.concat_map (fun p -> p.setup_s) all));
    ("sim.wall_run_s", median (List.map (fun p -> p.run_s) all));
    ("sim.probe_s", median (List.map (fun p -> p.speed) all));
    ( "sim.live_heap_mb",
      word_mb (int_of_float (median (List.map (fun p -> float_of_int p.live_words) first))) );
  ]

let untraced (w : Workloads.t) o =
  let t0 = now () in
  let runs, result = run_parts w o ~trace:false ~on_cluster:ignore in
  let first = Array.of_list runs in
  (* While the --seconds budget allows, run the parts again in turn:
     more samples, and each re-run must reproduce its part. *)
  let rec again k reruns same =
    let p = first.(k mod Workloads.parts) in
    let cost = List.fold_left ( +. ) p.run_s p.setup_s in
    if now () -. t0 +. cost > o.seconds then (reruns, same)
    else
      let r = run_part w o ~part:(k mod Workloads.parts) ~trace:false ~on_cluster:ignore in
      again (k + 1) (r :: reruns) (same && String.equal (part_digest r) (part_digest p))
  in
  let reruns, same = again 0 [] true in
  {
    result;
    digest = digest result;
    host = host_metrics ~first:runs (runs @ reruns);
    layer = [];
    checks =
      (if reruns = [] then []
       else
         [
           ( Printf.sprintf "%d re-run part(s) reproduce their outcome" (List.length reruns),
             same );
         ]);
    kinds = [];
  }

let traced (w : Workloads.t) o =
  let base, base_result = run_parts w o ~trace:false ~on_cluster:ignore in
  let create_s = !Workloads.create_s in
  let host = host_metrics ~first:base base in
  let sub = Tracing.create () in
  let runs, result = run_parts w o ~trace:true ~on_cluster:(Tracing.attach sub) in
  Option.iter
    (fun file ->
      write_file file (Json_min.to_string (Tracing.to_chrome sub ~workload:w.Workloads.name)))
    o.trace_file;
  let sum f l = List.fold_left (fun acc p -> acc +. f p) 0. l in
  let base_run = sum (fun p -> p.run_s) base in
  let events = float_of_int (max 1 (events_of base_result)) in
  let d = digest result in
  {
    result;
    digest = d;
    host = [];
    layer =
      host
      @ [
          ("sim.ns_per_event", base_run *. 1e9 /. events);
          ("sim.minor_words_per_event", sum (fun p -> p.minor_words) base /. events);
          ("sim.major_collections", sum (fun p -> float_of_int p.majors) base);
          ("cluster.create_s", create_s);
          ("sim.trace_overhead_frac", (sum (fun p -> p.run_s) runs /. base_run) -. 1.);
        ]
      @ Tracing.metrics sub;
    checks =
      [ ("traced run keeps the untraced sim_digest", String.equal d (digest base_result)) ];
    kinds = Tracing.kind_counts sub;
  }

(* {1 Reporting} *)

let samples_note (r : Workloads.result) name =
  let key =
    if String.starts_with ~prefix:"latency" name then Some "latency"
    else if String.starts_with ~prefix:"core.freeze" name then Some "freeze"
    else None
  in
  match Option.bind key (fun k -> List.assoc_opt k r.Workloads.samples) with
  | Some n -> Printf.sprintf "  (n=%d)" n
  | None -> ""

(* The value of a catalog metric: measured host figures first, then
   trace-derived ones, then the workload's deterministic outputs. A
   metric a workload has no use for (serve queueing on the migration
   churn, say) reads 0. *)
let value m name =
  match List.assoc_opt name m.host with
  | Some v -> v
  | None -> (
      match List.assoc_opt name m.layer with
      | Some v -> v
      | None ->
          List.fold_left
            (fun acc (n, _, v) -> if String.equal n name then v else acc)
            0. m.result.Workloads.metrics)

let is_e2e name =
  List.exists (fun (s : Catalog.spec) -> String.equal s.name name) Catalog.end_to_end

let unit_of name =
  match
    List.find_opt
      (fun (s : Catalog.spec) -> String.equal s.Catalog.name name)
      (Catalog.end_to_end @ Catalog.per_layer)
  with
  | Some s -> s.Catalog.unit
  | None -> ""

(* The metrics of the result line: end-to-end untraced, per-layer traced. *)
let headline o m =
  List.map
    (fun (s : Catalog.spec) -> (s.Catalog.name, s.Catalog.unit, value m s.Catalog.name))
    (if o.traced then Catalog.per_layer else Catalog.end_to_end)

let print_metric (r : Workloads.result) (name, unit, v) =
  Printf.printf "  %-34s %16.6f %-6s%s\n" name v unit (samples_note r name)

(* The result line: exactly correct / attempted / failed / metrics, with
   every number at full precision. *)
let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u)
          metrics))

let report_json o (w : Workloads.t) m ~checks ~correct =
  let open Json_min in
  let metric (n, u, v) = (n, Obj [ ("value", Num v); ("unit", Str u) ]) in
  let r = m.result in
  Obj
    [
      ("name", Str w.Workloads.name);
      ("seed", Num (float_of_int o.seed));
      ("smoke", Bool o.smoke);
      ("traced", Bool o.traced);
      ("correct", Bool correct);
      ("attempted", Num (float_of_int r.Workloads.attempted));
      ("failed", Num (float_of_int r.Workloads.failed));
      ("sim_digest", Str m.digest);
      ("metrics", Obj (List.map metric (headline o m)));
      ("deterministic", Obj (List.map metric r.Workloads.metrics));
      ("samples", Obj (List.map (fun (k, n) -> (k, Num (float_of_int n))) r.Workloads.samples));
      ("checks", Obj (List.map (fun (k, b) -> (k, Bool b)) checks));
      ("event_kinds", Obj (List.map (fun (k, n) -> (k, Num (float_of_int n))) m.kinds));
    ]

let wrap ~seed workloads =
  Json_min.Obj
    [
      ("schema", Json_min.Str "vbench/1");
      ("seed", Json_min.Num (float_of_int seed));
      ("workloads", Json_min.Arr workloads);
    ]

let run_one o (w : Workloads.t) =
  Printf.printf "== %s (seed %d%s, %s): %s\n%!" w.Workloads.name o.seed
    (if o.smoke then ", smoke" else "")
    (if o.traced then "traced" else "untraced")
    (w.Workloads.describe ~smoke:o.smoke);
  let m = if o.traced then traced w o else untraced w o in
  let r = m.result in
  let checks = r.Workloads.checks @ m.checks @ w.Workloads.verify ~seed:o.seed in
  let correct = List.for_all snd checks in
  if o.traced then begin
    Printf.printf "per-layer (traced run; host shares and spans from the trace)\n";
    List.iter (print_metric r) (headline o m);
    Printf.printf "trace events by category/type\n";
    List.iter (fun (k, n) -> Printf.printf "  %-34s %16d\n" k n) m.kinds
  end
  else begin
    Printf.printf "end-to-end (untraced; host s at reference speed, MB, virtual ms)\n";
    List.iter (print_metric r) (headline o m);
    Printf.printf "host clock and heap\n";
    List.iter
      (fun (n, v) -> if not (is_e2e n) then print_metric r (n, unit_of n, v))
      m.host;
    Printf.printf "deterministic outputs (in sim_digest)\n";
    List.iter (print_metric r)
      (List.filter (fun (n, _, _) -> not (is_e2e n)) r.Workloads.metrics)
  end;
  List.iter (fun n -> Printf.printf "note %s\n" n) r.Workloads.notes;
  List.iter
    (fun (k, ok) -> Printf.printf "check %-50s %s\n" k (if ok then "ok" else "FAILED"))
    checks;
  Printf.printf "sim_digest %s %s\n" w.Workloads.name m.digest;
  Option.iter
    (fun file ->
      write_file file (Json_min.to_string (wrap ~seed:o.seed [ report_json o w m ~checks ~correct ])))
    o.json;
  print_endline
    (result_line ~correct ~attempted:r.Workloads.attempted ~failed:r.Workloads.failed
       (headline o m));
  if correct then 0 else 1

(* {1 All workloads, one process each} *)

let suffixed file name =
  let stem = Filename.remove_extension file in
  Printf.sprintf "%s.%s%s" stem name (Filename.extension file)

(* Each workload runs in a child process whose output passes through;
   the children's result lines add up to the parent's. With --json, each
   child writes FILE.<workload> and the parent merges them into FILE. *)
let run_all o =
  let reports = ref [] and status = ref 0 in
  let attempted = ref 0 and failed = ref 0 and metrics = ref [] in
  List.iter
    (fun (w : Workloads.t) ->
      let name = w.Workloads.name in
      let part = Option.map (fun f -> suffixed f name) o.json in
      let args =
        [
          Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
          "--seconds"; Printf.sprintf "%g" o.seconds; "--trace";
          (if o.traced then "1" else "0");
        ]
        @ (if o.smoke then [ "--smoke" ] else [])
        @ (match part with Some f -> [ "--json"; f ] | None -> [])
        @ match o.trace_file with Some f -> [ "--traced"; suffixed f name ] | None -> []
      in
      let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
      let last = ref "" in
      (try
         while true do
           last := input_line ic;
           print_endline !last
         done
       with End_of_file -> ());
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> () | _ -> status := 1);
      let open Json_min in
      (match parse !last with
      | Ok line ->
          let num k = match member k line with Some (Num f) -> int_of_float f | _ -> 0 in
          attempted := !attempted + num "attempted";
          failed := !failed + num "failed";
          if member "correct" line <> Some (Bool true) then status := 1;
          (match member "metrics" line with
          | Some (Obj ms) ->
              List.iter
                (fun (n, mv) ->
                  match (member "value" mv, member "unit" mv) with
                  | Some (Num v), Some (Str u) -> metrics := (name ^ "/" ^ n, u, v) :: !metrics
                  | _ -> ())
                ms
          | _ -> ())
      | Error _ -> status := 1);
      Option.iter
        (fun f ->
          (match parse (In_channel.with_open_bin f In_channel.input_all) with
          | Ok doc -> (
              match member "workloads" doc with
              | Some (Arr ws) -> reports := !reports @ ws
              | _ -> status := 1)
          | Error _ | (exception Sys_error _) -> status := 1);
          if Sys.file_exists f then Sys.remove f)
        part)
    Workloads.all;
  Option.iter (fun file -> write_file file (Json_min.to_string (wrap ~seed:o.seed !reports))) o.json;
  print_endline
    (result_line ~correct:(!status = 0) ~attempted:!attempted ~failed:!failed
       (List.rev !metrics));
  !status

(* {1 Validating files} *)

(* A --json report must parse, carry the vbench/1 shape, and survive a
   print/parse round trip unchanged. *)
let check_json file =
  let open Json_min in
  let fail msg =
    Printf.printf "%s: %s\n" file msg;
    1
  in
  match parse (In_channel.with_open_bin file In_channel.input_all) with
  | Error e -> fail e
  | Ok doc -> (
      let well_formed wj =
        let str k = match member k wj with Some (Str _) -> true | _ -> false in
        let num k = match member k wj with Some (Num _) -> true | _ -> false in
        let metrics_ok =
          match member "metrics" wj with
          | Some (Obj (_ :: _ as ms)) ->
              List.for_all
                (fun (_, mv) ->
                  match (member "value" mv, member "unit" mv) with
                  | Some (Num _), Some (Str _) -> true
                  | _ -> false)
                ms
          | _ -> false
        in
        str "name" && str "sim_digest" && num "attempted" && num "failed"
        && metrics_ok
        && match member "correct" wj with Some (Bool _) -> true | _ -> false
      in
      match (member "schema" doc, member "workloads" doc) with
      | Some (Str "vbench/1"), Some (Arr (_ :: _ as ws)) ->
          if not (List.for_all well_formed ws) then fail "malformed workload entry"
          else if parse (to_string doc) <> Ok doc then fail "does not round-trip"
          else begin
            Printf.printf "%s: OK (%d workload(s))\n" file (List.length ws);
            0
          end
      | _ -> fail "not a vbench/1 report")

(* BENCHMARK.json must declare exactly the workloads and metrics this
   program reports, with the same units and directions. *)
let check_manifest file =
  let open Json_min in
  let fail msg =
    Printf.printf "%s: %s\n" file msg;
    1
  in
  match parse (In_channel.with_open_bin file In_channel.input_all) with
  | Error e -> fail e
  | Ok doc ->
      let names key =
        match member key doc with
        | Some (Arr xs) ->
            List.map
              (fun x ->
                let s k = match member k x with Some (Str v) -> v | _ -> "" in
                (s "name", s "unit", s "better"))
              xs
        | _ -> []
      in
      let specs l =
        List.map
          (fun (s : Catalog.spec) -> (s.Catalog.name, s.Catalog.unit, Catalog.better_name s.Catalog.better))
          l
      in
      let workloads = List.map (fun (n, _, _) -> n) (names "workloads") in
      if workloads <> List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all then
        fail "workloads differ"
      else if names "end_to_end" <> specs Catalog.end_to_end then fail "end_to_end metrics differ"
      else if names "per_layer" <> specs Catalog.per_layer then fail "per_layer metrics differ"
      else begin
        Printf.printf "%s: OK (%d workloads, %d end-to-end, %d per-layer metrics)\n" file
          (List.length workloads) (List.length Catalog.end_to_end) (List.length Catalog.per_layer);
        0
      end

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 0. in
  let trace = ref 0 and trace_file = ref None and json = ref None in
  let smoke = ref false and check = ref None and manifest = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME|all  workload to run");
      ("--seed", Arg.Set_int seed, Printf.sprintf "N  input and cluster seed (default %d)" default_seed);
      ( "--seconds",
        Arg.Set_float seconds,
        "S  host-time budget: after the parts, re-run them while it lasts (default 0)" );
      ("--trace", Arg.Set_int trace, "0|1  report end-to-end (0) or per-layer (1) metrics");
      ("--traced", Arg.String (fun f -> trace_file := Some f), "FILE  traced run, spans written to FILE");
      ("--json", Arg.String (fun f -> json := Some f), "FILE  write the full report to FILE");
      ("--smoke", Arg.Set smoke, " size every workload under a second");
      ("--check-json", Arg.String (fun f -> check := Some f), "FILE  validate a --json report");
      ("--check-manifest", Arg.String (fun f -> manifest := Some f), "FILE  validate BENCHMARK.json");
    ]
  in
  let usage = "main.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] ..." in
  let bad msg =
    prerr_endline msg;
    Arg.usage spec usage;
    exit 2
  in
  Arg.parse spec (fun a -> bad ("unexpected argument " ^ a)) usage;
  match (!check, !manifest) with
  | Some file, _ -> exit (check_json file)
  | None, Some file -> exit (check_manifest file)
  | None, None ->
      if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
      let o =
        {
          workload = !workload;
          seed = !seed;
          seconds = !seconds;
          traced = !trace = 1 || !trace_file <> None;
          trace_file = !trace_file;
          json = !json;
          smoke = !smoke;
        }
      in
      if String.equal o.workload "all" then exit (run_all o)
      else (
        match Workloads.find o.workload with
        | Some w -> exit (run_one o w)
        | None ->
            bad
              (Printf.sprintf "unknown workload %S (one of: all %s)" o.workload
                 (String.concat " " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all))))
