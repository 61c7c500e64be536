(* Preemption in anger (Sections 3 and 4.3): a long-running simulation
   job is parked on an idle workstation; its owner comes back and
   reclaims the machine with migrateprog. The job moves — with a
   sub-second freeze — and runs to completion elsewhere, unaware.

     dune exec examples/owner_returns.exe
*)

let () =
  let cl = Cluster.create ~seed:11 ~workstations:5 () in
  let eng = Cluster.engine cl in
  let origin = Cluster.workstation cl 0 in

  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         Printf.printf "ws0$ tex thesis.tex @ *\n";
         match Remote_exec.exec ctx ~prog:"tex" ~target:Remote_exec.Any with
         | Error e -> Printf.printf "exec failed: %s\n" e
         | Ok h -> (
             Printf.printf "[%s] tex running on %s\n"
               (Time.to_string (Engine.now eng))
               h.Remote_exec.h_host;
             (* Ten seconds in, the owner of that workstation sits down
                and types migrateprog. *)
             Proc.sleep eng (Time.of_sec 10.);
             let host_pm = Ids.program_manager_of h.Remote_exec.h_lh in
             Printf.printf "[%s] %s$ migrateprog   (owner is back)\n"
               (Time.to_string (Engine.now eng))
               h.Remote_exec.h_host;
             (match
                Remote_exec.migrate ~force_destroy:true (Context.kernel ctx)
                  ~self:(Context.self ctx) ~pm:host_pm None
              with
             | Ok outcomes ->
                 List.iter
                   (fun o ->
                     Printf.printf "[%s] migrated %s: %s -> %s\n"
                       (Time.to_string (Engine.now eng))
                       o.Protocol.m_prog o.Protocol.m_from o.Protocol.m_dest;
                     List.iteri
                       (fun i r ->
                         Printf.printf
                           "         pre-copy round %d: %4d KB while running \
                            (%s)\n"
                           (i + 1)
                           (r.Protocol.r_bytes / 1024)
                           (Time.to_string r.Protocol.r_span))
                       o.Protocol.m_rounds;
                     Printf.printf
                       "         frozen: %d KB residue + kernel state (%s) => \
                        program stopped for just %s\n"
                       (o.Protocol.m_final_bytes / 1024)
                       (Time.to_string o.Protocol.m_kernel_state)
                       (Time.to_string (Protocol.freeze_span o)))
                   outcomes
             | Error (Remote_exec.Refused m) ->
                 Printf.printf "migration failed: %s\n" m
             | Error (Remote_exec.No_answer _) ->
                 Printf.printf "migration: unexpected reply\n");
             match Remote_exec.wait ctx h with
             | Ok (wall, cpu) ->
                 Printf.printf
                   "[%s] tex finished: wall %s, cpu %s — it never noticed\n"
                   (Time.to_string (Engine.now eng))
                   (Time.to_string wall) (Time.to_string cpu)
             | Error e -> Printf.printf "wait failed: %s\n" e)));
  Cluster.run cl ~until:(Time.of_sec 120.);

  Printf.printf "\nowner's screen on ws0 (output followed the program):\n";
  List.iter
    (fun line -> Printf.printf "  | %s\n" line)
    (Display_server.output origin.Cluster.ws_display)
