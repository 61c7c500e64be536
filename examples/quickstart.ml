(* Quickstart: boot a small V cluster and run one program remotely with
   "cc68 @ *" — then show the communication paths of the paper's
   Figure 2-1 by printing the IPC, scheduling, program-manager and
   file-server events of the typed trace.

     dune exec examples/quickstart.exe
*)

let () =
  (* A cluster is a file-server machine plus workstations ws0..wsN-1 on
     one simulated 10 Mbit Ethernet. [trace:true] records every typed
     trace event. *)
  let cl = Cluster.create ~seed:42 ~workstations:4 ~trace:true () in
  let origin = Cluster.workstation cl 0 in

  (* The "command interpreter": a user process on ws0 typing
     [cc68 prog.c @ *]. The shell body gets its execution context —
     kernel, config, own pid, and environment — in one piece. *)
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         Printf.printf "ws0$ cc68 prog.c @ *\n";
         match Remote_exec.exec ctx ~prog:"cc68" ~target:Remote_exec.Any with
         | Error e -> Printf.printf "exec failed: %s\n" e
         | Ok h -> (
             let t = h.Remote_exec.h_timings in
             Printf.printf "started on %s (logical host %d)\n"
               h.Remote_exec.h_host h.Remote_exec.h_lh;
             Printf.printf "  host selection      : %s (paper: 23 ms)\n"
               (match t.Remote_exec.t_select with
               | Some s -> Time.to_string s
               | None -> "n/a");
             Printf.printf "  environment setup   : %s (paper: part of 40 ms)\n"
               (Time.to_string t.Remote_exec.t_setup);
             Printf.printf "  program image load  : %s (paper: 330 ms/100 KB)\n"
               (Time.to_string t.Remote_exec.t_load);
             match Remote_exec.wait ctx h with
             | Ok (wall, cpu) ->
                 Printf.printf "completed: wall %s, cpu %s\n"
                   (Time.to_string wall) (Time.to_string cpu)
             | Error e -> Printf.printf "wait failed: %s\n" e)));
  Cluster.run cl ~until:(Time.of_sec 60.);

  (* The owner's screen: the program printed there even though it ran on
     another workstation (display server co-resident with the frame
     buffer, Section 2.1). *)
  Printf.printf "\nws0's display:\n";
  List.iter
    (fun line -> Printf.printf "  | %s\n" line)
    (Display_server.output origin.Cluster.ws_display);

  (* Figure 2-1: the communication paths. The trace shows the program
     manager group query, creation on the chosen host, and the program's
     interactions with kernel servers and the file server. *)
  Printf.printf "\nFigure 2-1 — communication paths (first 25 events):\n";
  let on_path (r : Tracer.record) =
    List.mem (Tracer.view r.Tracer.ev).Tracer.v_cat
      [ "ipc"; "sched"; "pm"; "fs" ]
  in
  let paths = List.filter on_path (Tracer.records (Cluster.tracer cl)) in
  List.iteri
    (fun i r -> if i < 25 then Format.printf "  %a@." Tracer.pp_record r)
    paths;
  Printf.printf "(%d path events total)\n" (List.length paths)
