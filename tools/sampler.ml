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

let print_profile name stacks =
  let n = List.length stacks in
  let self = Hashtbl.create 64
  and incl = Hashtbl.create 64
  and by_module = Hashtbl.create 32 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun frames ->
      (match frames with
      | top :: _ ->
          bump self top;
          bump by_module (module_of_frame top)
      | [] -> ());
      List.iter (bump incl) (List.sort_uniq String.compare frames))
    stacks;
  let top label tbl =
    Printf.printf "  %s:\n" label;
    Hashtbl.fold (fun k c acc -> (c, k) :: acc) tbl []
    |> List.sort (fun (c1, k1) (c2, k2) ->
           if c1 <> c2 then Int.compare c2 c1 else String.compare k1 k2)
    |> List.iteri (fun i (c, k) ->
           if i < 25 then
             Printf.printf "    %5.1f%%  %s\n"
               (100. *. float_of_int c /. float_of_int n)
               k)
  in
  Printf.printf "\n--- sample: %s, %d samples at %.0f ms ---\n" name n
    (period_s *. 1000.);
  if n > 0 then begin
    top "self" self;
    top "inclusive" incl;
    top "self by module" by_module
  end;
  flush stdout
