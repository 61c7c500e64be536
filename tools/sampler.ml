(* SIGPROF sampling profiler, shared by `bench --sample` and
   tools/sample_workload.exe. See the interface for what a sample can
   and cannot see. *)

let period_s = 0.001
let depth = 64

let frames_of bt =
  let rec names slot acc =
    let acc =
      match Printexc.Slot.name (Printexc.convert_raw_backtrace_slot slot) with
      | Some n -> n :: acc
      | None -> acc
    in
    match Printexc.get_raw_backtrace_next_slot slot with
    | Some inlined -> names inlined acc
    | None -> acc
  in
  let acc = ref [] in
  for i = Printexc.raw_backtrace_length bt - 1 downto 0 do
    acc := List.rev_append (names (Printexc.get_raw_backtrace_slot bt i) []) !acc
  done;
  (* Innermost first; the first frame is the handler itself. *)
  match !acc with _handler :: frames -> frames | [] -> []

let sampled run =
  let stacks = ref [] in
  let timer v = { Unix.it_interval = v; it_value = v } in
  let prev =
    Sys.signal Sys.sigprof
      (Sys.Signal_handle
         (fun _ -> stacks := Printexc.get_callstack depth :: !stacks))
  in
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer period_s));
  let r =
    Fun.protect run ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.));
        Sys.set_signal Sys.sigprof prev)
  in
  (r, List.rev_map frames_of !stacks)

let fiber_cut_share = function
  | [] -> 0.
  | stacks ->
      let cut frames = not (List.mem "Sampler.sampled" frames) in
      float_of_int (List.length (List.filter cut stacks))
      /. float_of_int (List.length stacks)

let exe_prefix = "Dune__exe__"

let module_of_frame frame =
  let m =
    match String.index_opt frame '.' with
    | Some i -> String.sub frame 0 i
    | None -> frame
  in
  let n = String.length exe_prefix in
  if String.length m > n && String.sub m 0 n = exe_prefix then
    String.sub m n (String.length m - n)
  else m

(* Every lib/ module is in one layer or in [charged_to_caller];
   test/test_layers.ml checks both lists against the sources. *)
let layers =
  [
    ("engine", [ "Engine" ]);
    ("proc", [ "Proc"; "Ivar"; "Mailbox" ]);
    ("cpu", [ "Cpu" ]);
    ( "kernel",
      [ "Kernel"; "Logical_host"; "Address_space"; "Content_cache"; "Delivery";
        "Packet"; "Vproc"; "Message" ] );
    ("net", [ "Ethernet"; "Frame"; "Transfer"; "Pagehash" ]);
    ("services", [ "File_server"; "Name_server"; "Display_server" ]);
    ("placement", [ "Placement"; "Scheduler"; "Balancer"; "Health" ]);
    ( "programs",
      [ "Program"; "Program_manager"; "Progtable"; "Migration"; "Remote_exec";
        "Env"; "Directory"; "Residual"; "Subprogram" ] );
    ("serve", [ "Serve" ]);
    ("check", [ "Monitors"; "Coverage"; "Fuzz"; "Replay"; "Scenario"; "Tracer" ]);
    ("cluster", [ "Cluster"; "Experiment"; "Faults" ]);
  ]

let charged_to_caller =
  [ "Int_table"; "Stats"; "Rng"; "Time"; "Json_min"; "Ids"; "Addr"; "Config";
    "Os_params"; "Context"; "Protocol"; "Parrun"; "Arrivals"; "Calibrate";
    "Dirty_model"; "Programs" ]

let layer_of_module =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (l, ms) -> List.iter (fun m -> Hashtbl.replace tbl m l) ms) layers;
  Hashtbl.find_opt tbl

let layer_of_stack frames =
  Option.value ~default:"other"
    (List.find_map (fun f -> layer_of_module (module_of_frame f)) frames)

(* How many stacks name each key, most first; [keys frames] lists the
   keys one stack counts towards. *)
let tally keys stacks =
  let tbl = Hashtbl.create 64 in
  let bump k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter (fun frames -> List.iter bump (keys frames)) stacks;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
  |> List.sort (fun (k1, c1) (k2, c2) ->
         if c1 <> c2 then Int.compare c2 c1 else String.compare k1 k2)

let by_layer stacks = tally (fun frames -> [ layer_of_stack frames ]) stacks

let print_profile name stacks =
  let n = List.length stacks in
  let innermost f = function top :: _ -> [ f top ] | [] -> [] in
  let top label rows =
    Printf.printf "  %s:\n" label;
    List.iteri
      (fun i (k, c) ->
        if i < 25 then
          Printf.printf "    %5.1f%%  %s\n"
            (100. *. float_of_int c /. float_of_int n)
            k)
      rows
  in
  Printf.printf "\n--- sample: %s, %d samples at %.0f ms ---\n" name n
    (period_s *. 1000.);
  if n > 0 then begin
    Printf.printf
      "  %.1f%% of samples end at a simulated process's fiber: inclusive \
       shares miss them for every frame outside the process\n"
      (100. *. fiber_cut_share stacks);
    top "self" (tally (innermost Fun.id) stacks);
    top "inclusive" (tally (List.sort_uniq String.compare) stacks);
    top "self by module" (tally (innermost module_of_frame) stacks);
    top "self by layer" (by_layer stacks)
  end;
  flush stdout
