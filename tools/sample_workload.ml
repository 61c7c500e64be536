(* Sample a benchmark workload without editing the benchmark:

     dune exec tools/sample_workload.exe -- WORKLOAD [PARTS]

   Sets up and runs the first PARTS parts (default: all of them) of
   WORKLOAD at the benchmark's default seed, untraced, exactly as
   benchmark/main.exe builds them (tally.ml and workloads.ml are copied
   from benchmark/). Only the runs are sampled, not the set-ups. Prints
   the events fired and the share of them that fired from a fixed-delay
   lane of the engine; the minor words, promoted words and major
   collections of the runs per event (the sampler charges GC work to
   whichever frame allocates, so these show where allocation savings
   land; the sampler's own stack captures are included, a few hundred
   words per sample); then the top self and inclusive frames and the
   self time summed by module and by layer. *)

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
      (* A part may build its clusters inside its run, one after another:
         count each engine's events once the next one starts, so no
         finished cluster is kept alive. *)
      let fired = ref 0 and lane_fired = ref 0 and last = ref None in
      let count_last () =
        Option.iter
          (fun e ->
            fired := !fired + Engine.events_fired e;
            lane_fired := !lane_fired + Engine.lane_fired e)
          !last;
        last := None
      in
      let on_cluster cl =
        count_last ();
        last := Some (Cluster.engine cl)
      in
      let minor = ref 0. and promoted = ref 0. and majors = ref 0 in
      let stacks =
        List.concat_map
          (fun part ->
            let inst =
              w.Workloads.setup ~seed ~part ~smoke:false ~trace:false ~on_cluster
            in
            let m0 = Gc.minor_words () and g0 = Gc.quick_stat () in
            let stacks = snd (Sampler.sampled inst.Workloads.run) in
            let g1 = Gc.quick_stat () in
            minor := !minor +. Gc.minor_words () -. m0;
            promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
            majors := !majors + g1.Gc.major_collections - g0.Gc.major_collections;
            count_last ();
            stacks)
          (List.init parts Fun.id)
      in
      let per_event x = x /. float_of_int (max 1 !fired) in
      Printf.printf "events fired: %d, %.1f%% from fixed-delay lanes\n" !fired
        (100. *. per_event (float_of_int !lane_fired));
      Printf.printf
        "GC per event: %.1f minor words, %.2f promoted words, %.2f major \
         collections per million events (%.0fM minor words, %.1fM promoted, %d \
         major collections)\n"
        (per_event !minor) (per_event !promoted)
        (1e6 *. per_event (float_of_int !majors))
        (!minor /. 1e6) (!promoted /. 1e6) !majors;
      Sampler.print_profile
        (Printf.sprintf "%s, seed %d, %d part(s)" w.Workloads.name seed parts)
        stacks
  | _ -> usage ()
