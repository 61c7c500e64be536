(* Source scans. The sampler's layer table (tools/sampler.ml): every
   library module has a place in it, and a sample is charged to the
   innermost frame whose module has a layer. The message vocabulary:
   every wire message a library declares is sent somewhere. *)

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

(* {1 Every message has a sender} *)

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [src] with comments, string and character literals blanked to spaces;
   offsets and line breaks are kept. *)
let code_only src =
  let n = String.length src in
  let b = Bytes.of_string src in
  let blank i j =
    for k = i to min j (n - 1) do
      if src.[k] <> '\n' then Bytes.set b k ' '
    done
  in
  let rec string_end i =
    if i >= n then n
    else if src.[i] = '\\' then string_end (i + 2)
    else if src.[i] = '"' then i
    else string_end (i + 1)
  in
  let rec comment_end depth i =
    if i + 1 >= n then n
    else if src.[i] = '(' && src.[i + 1] = '*' then comment_end (depth + 1) (i + 2)
    else if src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 1 else comment_end (depth - 1) (i + 2)
    else comment_end depth (i + 1)
  in
  let rec go i =
    if i < n then
      if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        let j = comment_end 0 i in
        blank i j;
        go (j + 1)
      end
      else if src.[i] = '"' then begin
        let j = string_end (i + 1) in
        blank i j;
        go (j + 1)
      end
      else if src.[i] = '\'' && (i = 0 || not (is_ident src.[i - 1])) then
        if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then begin
          blank i (i + 2);
          go (i + 3)
        end
        else if i + 1 < n && src.[i + 1] = '\\' then begin
          let j = try String.index_from src (i + 2) '\'' with Not_found -> n in
          blank i j;
          go (j + 1)
        end
        else go (i + 1)
      else go (i + 1)
  in
  go 0;
  Bytes.to_string b

let decl = "type Message.body +="

(* The [(start, stop)] offsets of each [type Message.body +=] block: from
   the keyword to the next line that starts with neither a blank nor
   [|]. *)
let blocks code =
  let n = String.length code in
  let rec stop i =
    if i >= n then n
    else if
      code.[i] = '\n' && i + 1 < n
      && not (List.mem code.[i + 1] [ ' '; '\n'; '|' ])
    then i
    else stop (i + 1)
  in
  let rec from i acc =
    match Str.search_forward (Str.regexp_string decl) code i with
    | start ->
        let e = stop start in
        from e ((start, e) :: acc)
    | exception Not_found -> List.rev acc
  in
  from 0 []

(* The constructors a block declares: each name after [+=] or [|]. *)
let constructors code (start, stop) =
  let re = Str.regexp "\\([+]=\\||\\)[ \n]*\\([A-Z][A-Za-z0-9_']*\\)" in
  let rec go i acc =
    match Str.search_forward re code i with
    | p when p < stop -> go (Str.match_end ()) (Str.matched_group 2 code :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  go start []

(* The character before offset [i], skipping blanks, [(] and module
   qualifiers ([Kernel.], [Protocol.(]). *)
let rec previous code i =
  if i <= 0 then ' '
  else
    match code.[i - 1] with
    | ' ' | '\n' | '(' -> previous code (i - 1)
    | '.' ->
        let j = ref (i - 1) in
        while !j > 0 && is_ident code.[!j - 1] do decr j done;
        previous code !j
    | c -> c

(* Whether [name] occurs in [code] outside [inside] as anything but a
   match arm or a declaration (a token after [|]). *)
let sent code ~inside name =
  let re = Str.regexp_string name in
  let rec go i =
    match Str.search_forward re code i with
    | p ->
        let e = p + String.length name in
        let word =
          (p = 0 || not (is_ident code.[p - 1]))
          && (e >= String.length code || not (is_ident code.[e]))
        in
        if word && (not (inside p)) && previous code p <> '|' then true
        else go e
    | exception Not_found -> false
  in
  go 0

(* [sources] are (name, text) pairs. Returns every declared constructor
   and those with no sender. *)
let unsent sources =
  let files =
    List.map
      (fun (_, src) ->
        let code = code_only src in
        (code, blocks code))
      sources
  in
  let declared =
    List.concat_map
      (fun (code, bs) -> List.concat_map (constructors code) bs)
      files
  in
  let has_sender name =
    List.exists
      (fun (code, bs) ->
        let inside p = List.exists (fun (a, b) -> p >= a && p < b) bs in
        sent code ~inside name)
      files
  in
  (declared, List.filter (fun c -> not (has_sender c)) declared)

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then ml_files path
         else if Filename.check_suffix f ".ml" then [ path ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

let test_scan () =
  let declared, unsent =
    unsent
      [
        ( "a.ml",
          "type Message.body += A | B of int (* C *)\n\
           | D of { x : int }\n\
           let f = function | A -> \"D\" | B _ -> 'D'\n\
           let g = M.(A)" );
        ("b.ml", "let h = Lib.B 1\nlet e = function E -> ()");
      ]
  in
  Alcotest.(check (list string)) "declared" [ "A"; "B"; "D" ] declared;
  Alcotest.(check (list string)) "unsent" [ "D" ] unsent

let test_every_message_sent () =
  let sources =
    List.concat_map ml_files [ "../lib"; "../bin"; "../bench"; "../examples" ]
    |> List.map (fun path -> (path, read path))
  in
  let declared, unsent = unsent sources in
  Alcotest.(check bool) "message constructors found" true
    (List.length declared > 40);
  Alcotest.(check (list string)) "message constructors nothing sends" []
    unsent

(* A sample taken inside a simulated process ends at the process body;
   one taken in the engine's own code runs down to the sampler. *)
let test_fiber_cut () =
  let in_process =
    [ "Cpu.compute_sliced"; "Program.run_spec.run"; "Proc.spawn.(fun)" ]
  and in_engine =
    [ "Cpu.tick"; "Engine.fire_top"; "Engine.run"; "Stdlib__Fun.protect";
      "Sampler.sampled"; "Dune__exe__Main.run" ]
  in
  let share what expected stacks =
    Alcotest.(check (float 1e-12)) what expected (Sampler.fiber_cut_share stacks)
  in
  share "process sample is cut" 1. [ in_process ];
  share "engine sample reaches the sampler" 0. [ in_engine ];
  share "empty stack is cut" 1. [ [] ];
  share "share" 0.5 [ in_process; in_engine; in_engine; [] ];
  share "no samples" 0. []

let () =
  Alcotest.run "layers"
    [
      ( "layer table",
        [
          Alcotest.test_case "every lib module placed" `Quick
            test_every_module_placed;
          Alcotest.test_case "innermost mapped frame" `Quick test_charging;
          Alcotest.test_case "samples cut at a fiber" `Quick test_fiber_cut;
        ] );
      ( "messages",
        [
          Alcotest.test_case "scanner" `Quick test_scan;
          Alcotest.test_case "every message constructor sent" `Quick
            test_every_message_sent;
        ] );
    ]
