(* Sample a benchmark workload without editing the benchmark:

     dune exec tools/sample_workload.exe -- WORKLOAD [PARTS]

   Sets up and runs the first PARTS parts (default: all of them) of
   WORKLOAD at the benchmark's default seed, untraced, exactly as
   benchmark/main.exe builds them (tally.ml and workloads.ml are copied
   from benchmark/). Only the runs are sampled, not the set-ups. Prints
   the top self and inclusive frames and the self time summed by module
   and by layer. *)

let seed = 1985

let () =
  let usage () =
    Printf.eprintf "usage: sample_workload.exe WORKLOAD [PARTS]\n  workloads: %s\n"
      (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
    exit 2
  in
  let w, parts =
    match Array.to_list Sys.argv with
    | [ _; name ] -> (Workloads.find name, Some Workloads.parts)
    | [ _; name; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 1 && n <= Workloads.parts -> (Workloads.find name, Some n)
        | _ -> (None, None))
    | _ -> (None, None)
  in
  match (w, parts) with
  | Some w, Some parts ->
      let stacks =
        List.concat_map
          (fun part ->
            let inst =
              w.Workloads.setup ~seed ~part ~smoke:false ~trace:false
                ~on_cluster:ignore
            in
            snd (Sampler.sampled inst.Workloads.run))
          (List.init parts Fun.id)
      in
      Sampler.print_profile
        (Printf.sprintf "%s, seed %d, %d part(s)" w.Workloads.name seed parts)
        stacks
  | _ -> usage ()
