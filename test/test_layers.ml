(* Tests for the sampler's layer table (tools/sampler.ml): every library
   module has a place in it, and a sample is charged to the innermost
   frame whose module has a layer. *)

(* Every module under lib/, from the sources (a glob dependency in
   test/dune copies them next to the test). *)
let lib_modules () =
  let lib = "../lib" in
  Sys.readdir lib |> Array.to_list
  |> List.concat_map (fun sub ->
         let dir = Filename.concat lib sub in
         if Sys.is_directory dir then
           Sys.readdir dir |> Array.to_list
           |> List.filter (fun f -> Filename.check_suffix f ".ml")
           |> List.map (fun f ->
                  String.capitalize_ascii (Filename.chop_suffix f ".ml"))
         else [])
  |> List.sort String.compare

let rec duplicates = function
  | a :: (b :: _ as rest) when String.equal a b -> a :: duplicates rest
  | _ :: rest -> duplicates rest
  | [] -> []

let test_every_module_placed () =
  let modules = lib_modules () in
  Alcotest.(check bool) "library sources found" true (List.length modules > 40);
  let listed = List.concat_map snd Sampler.layers @ Sampler.charged_to_caller in
  Alcotest.(check (list string))
    "modules neither in a layer nor charged to their caller" []
    (List.filter (fun m -> not (List.mem m listed)) modules);
  Alcotest.(check (list string))
    "listed names that are no library module" []
    (List.filter (fun m -> not (List.mem m modules)) listed);
  Alcotest.(check (list string))
    "modules listed twice" []
    (duplicates (List.sort String.compare listed))

let test_charging () =
  let charged what expected stack =
    Alcotest.(check string) what expected (Sampler.layer_of_stack stack)
  in
  let stdlib_in_kernel =
    [ "Stdlib__Array.fold_left"; "Kernel.memory_free"; "Engine.run" ]
  and table_in_manager =
    [ "Int_table.fold"; "Stdlib__Hashtbl.fold"; "Program_manager.willing";
      "Kernel.ks_body.loop"; "Proc.spawn.(fun)" ]
  and exe_in_cluster =
    [ "Dune__exe__Workloads.churn_part.run"; "Time.add"; "Cluster.run" ]
  and unmapped =
    [ "Int_table.find_opt_in"; "CamlinternalFormat.make_printf";
      "Dune__exe__Main.run"; "Stdlib__List.iter" ]
  in
  charged "Stdlib frame innermost" "kernel" stdlib_in_kernel;
  charged "Int_table frame innermost" "programs" table_in_manager;
  charged "executable frame innermost" "cluster" exe_in_cluster;
  charged "no mapped frame" "other" unmapped;
  charged "empty stack" "other" [];
  let stacks =
    [ stdlib_in_kernel; table_in_manager; exe_in_cluster; unmapped; [];
      [ "Engine.fire_top" ]; [ "Kernel.inbound_home"; "Engine.fire_top" ] ]
  in
  let counts = Sampler.by_layer stacks in
  Alcotest.(check (list (pair string int)))
    "counts, most first"
    [ ("kernel", 2); ("other", 2); ("cluster", 1); ("engine", 1); ("programs", 1) ]
    counts;
  Alcotest.(check int) "counts sum to the samples" (List.length stacks)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 counts)

let () =
  Alcotest.run "layers"
    [
      ( "layer table",
        [
          Alcotest.test_case "every lib module placed" `Quick
            test_every_module_placed;
          Alcotest.test_case "innermost mapped frame" `Quick test_charging;
        ] );
    ]
