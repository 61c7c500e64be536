(* Residual host dependencies (Section 3.3): what a migrated program
   still needs from other machines. With V's conventions — files on a
   global network file server — a migrated program depends only on
   global servers and survives a reboot of its original host. Violating
   the convention (a server private to the origin workstation) leaves a
   residual dependency, and the origin's reboot kills the program. We
   demonstrate both, using the detector the paper lists as future work.

     dune exec examples/residual_deps.exe
*)

let find_program cl (h : Remote_exec.handle) host =
  match Cluster.find_workstation cl host with
  | None -> None
  | Some w ->
      Progtable.find (Program_manager.table w.Cluster.ws_pm) h.Remote_exec.h_lh

let migrate_it ctx h = Result.to_option (Remote_exec.migrate_program ctx h)

let scenario ~use_origin_file_server =
  let cl = Cluster.create ~seed:23 ~workstations:5 () in
  let origin = Cluster.workstation cl 0 in
  let label =
    if use_origin_file_server then
      "files on a server PRIVATE to ws0 (violating the convention)"
    else "files on the global network file server (the V convention)"
  in
  Printf.printf "\n--- %s ---\n" label;
  let env =
    if use_origin_file_server then begin
      (* A file server running on the origin workstation itself. *)
      let local_fs =
        File_server.create origin.Cluster.ws_kernel
      in
      Programs.publish_images local_fs;
      File_server.add_file local_fs ~path:"optimizer.in" ~bytes:(64 * 1024);
      Some
        {
          (Cluster.env_for cl origin) with
          Env.file_server = File_server.pid local_fs;
        }
    end
    else None
  in
  let status = ref "did not run" in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         let ctx =
           match env with Some e -> Context.with_env ctx e | None -> ctx
         in
         match Remote_exec.exec ctx ~prog:"optimizer" ~target:Remote_exec.Any with
         | Error e -> status := "exec failed: " ^ e
         | Ok h -> (
             Proc.sleep (Cluster.engine cl) (Time.of_sec 1.);
             match migrate_it ctx h with
             | None -> status := "migration failed"
             | Some o -> (
                 match find_program cl h o.Protocol.m_dest with
                 | None -> status := "record lost"
                 | Some p ->
                     let deps =
                       Residual.residual_hosts ~ignore_display:true
                         (Cluster.directory cl) p
                     in
                     Printf.printf
                       "after migrating to %s, residual dependencies: [%s]\n"
                       o.Protocol.m_dest
                       (String.concat "; " deps);
                     Printf.printf "ws0 reboots now.\n";
                     Kernel.shutdown origin.Cluster.ws_kernel;
                     ignore
                       (Engine.schedule_after (Cluster.engine cl)
                          (Time.of_sec 60.) (fun () ->
                            status :=
                              (match p.Progtable.p_status with
                              | Progtable.Done { failed = false; _ } ->
                                  "program COMPLETED despite the reboot"
                              | Progtable.Done { failed = true; _ } ->
                                  "program FAILED — the residual dependency \
                                   bit when ws0 went down"
                              | Progtable.Running | Progtable.Migrating
                              | Progtable.Suspended ->
                                  "program still running (stuck on dead \
                                   server)")))))));
  Cluster.run cl ~until:(Time.of_sec 90.);
  Printf.printf "outcome: %s\n" !status

let () =
  Printf.printf
    "Residual dependency demonstration (Section 3.3)\n\
     A program is executed remotely from ws0, migrated away, and then ws0 \
     reboots.\n";
  scenario ~use_origin_file_server:false;
  scenario ~use_origin_file_server:true;
  Printf.printf
    "\nMoral (Section 6): \"place the state of a program's execution \
     environment either in its address space or in global servers\".\n"
