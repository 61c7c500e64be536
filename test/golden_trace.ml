(* Golden-trace generator: run a pinned scenario named on the command
   line and print its migration-phase events as JSONL. `dune runtest`
   diffs the output of each case against its committed fixture
   (golden_trace_{precopy,freeze,cor,vmflush,budget,flashcrowd,dedup}.expected)
   — any change to event content, order or timing under this seed must
   be intentional (re-bless with `dune promote`). The strategy cases run
   one cc68 migration; the budget case runs a pre-copy tex migration
   under the default deadline budgets with 4 MiB per-host content
   caches, pinning the budget declaration and the full (overflowing the
   request segment), round and residue manifest exchanges; the flashcrowd case replays the scenario
   library's flash-crowd family at a pinned seed, pinning the whole
   burst's migration and fault stream; the dedup case re-migrates under
   per-host content caches, pinning the manifest exchange and chunk
   hit/miss stream. *)

let strategy_case ~cfg ~categories ~prog strategy_of =
  let cl = Cluster.create ~seed:1985 ~workstations:4 ~trace:true ~cfg () in
  Tracer.keep (Cluster.tracer cl);
  match
    Experiment.migrate_program cl ~strategy:(strategy_of cl)
      ~run_for:(Time.of_sec 3.) ~prog ()
  with
  | Error e ->
      prerr_endline ("golden_trace: migration failed: " ^ e);
      exit 1
  | Ok _ -> print_string (Tracer.to_jsonl ~categories (Cluster.tracer cl))

let cc68_case =
  strategy_case ~cfg:Config.default ~categories:[ "migrate"; "lh" ]
    ~prog:"cc68"

let with_caches (cfg : Config.t) =
  {
    cfg with
    Config.os =
      { cfg.Config.os with Os_params.content_cache_bytes = 4 * 1024 * 1024 };
  }

let flashcrowd_case () =
  let entry =
    match Scenario.Library.find "flash-crowd" with
    | Some e -> e
    | None ->
        prerr_endline "golden_trace: flash-crowd missing from the library";
        exit 1
  in
  let sc = Scenario.Library.plain entry ~seed:77 in
  let cl, finish = Scenario.start sc in
  Tracer.keep (Cluster.tracer cl);
  let o = finish () in
  if o.Scenario.o_violations <> [] then begin
    prerr_endline "golden_trace: flash-crowd seed 77 tripped a monitor";
    exit 1
  end;
  print_string
    (Tracer.to_jsonl
       ~categories:[ "migrate"; "lh"; "fault" ]
       (Cluster.tracer cl))

(* Content-addressed re-migration at a pinned seed with 4 MiB per-host
   caches: cc68 runs on ws0, migrates to ws1 and back. The fixture pins
   the manifest exchanges — the outbound trip's image-chunk hits (the
   file server's announcement warmed ws1) and the return trip's delta
   (the origin's cache still holds everything it shipped). The dedup
   and residual monitors must stay silent. *)
let dedup_case () =
  let cfg = with_caches Config.default in
  let cl = Cluster.create ~seed:1985 ~workstations:4 ~trace:true ~cfg () in
  Tracer.keep (Cluster.tracer cl);
  let mon = Monitors.attach (Cluster.tracer cl) in
  let eng = Cluster.engine cl in
  let failed = ref None in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match Remote_exec.exec ctx ~prog:"cc68" ~target:Remote_exec.Local with
         | Error e -> failed := Some ("exec: " ^ e)
         | Ok h -> (
             let migrate ~from_host ~dest =
               let pm =
                 Program_manager.pid
                   (Option.get (Cluster.find_workstation cl from_host))
                     .Cluster.ws_pm
               in
               match Remote_exec.migrate_program ~pm ~dest ctx h with
               | Ok _ -> Ok ()
               | Error _ -> Error "migration failed"
             in
             Proc.sleep eng (Time.of_sec 2.);
             match migrate ~from_host:h.Remote_exec.h_host ~dest:"ws1" with
             | Error e -> failed := Some ("outbound: " ^ e)
             | Ok () -> (
                 Proc.sleep eng (Time.of_sec 1.);
                 match migrate ~from_host:"ws1" ~dest:h.Remote_exec.h_host with
                 | Error e -> failed := Some ("return: " ^ e)
                 | Ok () -> ()))));
  Cluster.run cl ~until:(Time.of_sec 60.);
  (match !failed with
  | Some e ->
      prerr_endline ("golden_trace: dedup scenario failed: " ^ e);
      exit 1
  | None -> ());
  if Monitors.violations mon <> [] then begin
    prerr_endline "golden_trace: dedup seed 1985 tripped a monitor";
    exit 1
  end;
  print_string
    (Tracer.to_jsonl
       ~categories:[ "migrate"; "lh"; "xfer" ]
       (Cluster.tracer cl))

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "precopy" with
  | "precopy" -> cc68_case (fun _ -> Protocol.Precopy)
  | "freeze" -> cc68_case (fun _ -> Protocol.Freeze_and_copy)
  | "cor" -> cc68_case (fun _ -> Protocol.Copy_on_reference)
  | "vmflush" ->
      cc68_case (fun cl ->
          Protocol.Vm_flush
            { page_server = File_server.pid (Cluster.file_server cl) })
  | "budget" ->
      strategy_case
        ~cfg:(with_caches (Config.with_default_budgets Config.default))
        ~categories:[ "migrate"; "lh"; "xfer" ]
        ~prog:"tex"
        (fun _ -> Protocol.Precopy)
  | "flashcrowd" -> flashcrowd_case ()
  | "dedup" -> dedup_case ()
  | s ->
      prerr_endline ("golden_trace: unknown case " ^ s);
      exit 2
