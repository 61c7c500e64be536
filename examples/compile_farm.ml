(* The paper's motivating scenario (Section 1): "a user may wish to
   compile a program and reformat the documentation after fixing a
   program error, while continuing to read mail". We run the whole C
   compilation pipeline — cc68's five subprograms (footnote 6) — plus a
   tex job, offloading every stage onto idle workstations with "@ *"
   while the owner's workstation stays responsive.

     dune exec examples/compile_farm.exe
*)

let stages =
  [ "preprocessor"; "parser"; "optimizer"; "assembler"; "linking loader" ]

let () =
  let cl = Cluster.create ~seed:7 ~workstations:8 () in
  let origin = Cluster.workstation cl 0 in
  let eng = Cluster.engine cl in

  (* The owner keeps editing on ws0 throughout: light foreground load
     whose responsiveness we measure. *)
  let edit_latency = Stats.Summary.create () in
  ignore
    (Proc.spawn eng (fun () ->
         let k = origin.Cluster.ws_kernel in
         for _ = 1 to 200 do
           let t0 = Engine.now eng in
           Cpu.compute (Kernel.cpu k) ~priority:Cpu.Foreground (Time.of_ms 5.);
           Stats.Summary.record edit_latency
             (Time.to_ms (Time.sub (Engine.now eng) t0));
           Proc.sleep eng (Time.of_ms 200.)
         done));

  (* "make": drive the pipeline. Stages of one compilation are
     sequential, but the doc-formatting tex job runs concurrently. *)
  let results = ref [] in
  let note fmt = Printf.ksprintf (fun s -> results := s :: !results) fmt in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"make" (fun ctx ->
         let t0 = Engine.now eng in
         List.iter
           (fun stage ->
             match
               Remote_exec.exec_and_wait ctx ~prog:stage
                 ~target:Remote_exec.Any
             with
             | Ok (h, wall, _) ->
                 note "  %-16s on %-4s in %s" stage h.Remote_exec.h_host
                   (Time.to_string wall)
             | Error e -> note "  %-16s FAILED: %s" stage e)
           stages;
         note "pipeline finished in %s"
           (Time.to_string (Time.sub (Engine.now eng) t0))));
  ignore
    (Cluster.shell cl ~ws:0 ~name:"tex-shell" (fun ctx ->
         match
           Remote_exec.exec_and_wait ctx ~prog:"tex" ~target:Remote_exec.Any
         with
         | Ok (h, wall, _) ->
             note "  %-16s on %-4s in %s" "tex" h.Remote_exec.h_host
               (Time.to_string wall)
         | Error e -> note "  %-16s FAILED: %s" "tex" e));

  Cluster.run cl ~until:(Time.of_sec 120.);

  Printf.printf "compile farm results:\n";
  List.iter print_endline (List.rev !results);
  Printf.printf
    "\nowner's editing on ws0 while all this ran remotely:\n\
    \  %d keystrokes, mean burst latency %.1f ms (worst %.1f ms) — \n\
    \  \"a text-editing user need not notice the presence of background \
     jobs\" (Section 2)\n"
    (Stats.Summary.count edit_latency)
    (Stats.Summary.mean edit_latency)
    (Stats.Summary.max edit_latency)
