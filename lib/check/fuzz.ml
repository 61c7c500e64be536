(* The library contract of the sampled entries; the seed cycle
   dispatches every placement policy over any >= 4-seed range. *)
let contract ~serve = function
  | None -> Coverage.Free_form
  | Some entries ->
      let union f = List.sort_uniq String.compare (List.concat_map f entries) in
      Coverage.Library
        {
          scenarios = List.map Scenario.Library.name entries;
          strategies = union (Scenario.Library.strategies ~serve);
          features = union (Scenario.Library.features ~serve);
          placements = (if serve then Replay.placement_tokens else []);
        }

type knobs = {
  rebind : Os_params.rebind_mode;
  content_cache : int;
  strategy : Protocol.strategy option;
  placement : string option;
}

let cycle arr seed =
  let n = Array.length arr in
  arr.(((seed mod n) + n) mod n)

let placement_cycle =
  Array.of_list (None :: List.map Option.some Replay.placement_tokens)

(* The one seed → knobs function. A forced flag pins its knob on every
   seed; otherwise odd seeds get a 4 MiB content cache and even seeds
   run without, and serve seeds cycle through the scenario's own
   placement draw and the three named policies, so any contiguous
   >= 4-seed range covers both transfer paths and every policy. Being a
   pure function of (flags, seed), a REPLAY line that records only the
   forced flags reproduces every knob. *)
let knobs (r : Replay.t) seed =
  {
    rebind =
      (if r.Replay.r_forwarding then Os_params.Forwarding
       else Os_params.Broadcast_query);
    content_cache =
      (match r.Replay.r_content_cache with
      | Some b -> b
      | None -> if seed land 1 = 1 then 4 * 1024 * 1024 else 0);
    strategy = Option.map Scenario.strategy_of_token r.Replay.r_strategy;
    placement =
      (if not r.Replay.r_serve then None
       else
         match r.Replay.r_placement with
         | Some _ as p -> p
         | None -> cycle placement_cycle seed);
  }

type shape = Plain | Serve

type trial = {
  description : string;
  details : string list;
  replay : string;
  violations : Monitors.violation list;
  dropped : int;
  events : int;
  stuck : int;
  shed : int;
  coverage : Coverage.t;
}

let failed t = t.violations <> [] || t.stuck <> 0

let cache_line k =
  if k.content_cache > 0 then
    [ Printf.sprintf "content cache: %d KiB/host" (k.content_cache / 1024) ]
  else []

let features_line = function
  | [] -> []
  | fs ->
      [
        "features: "
        ^ String.concat ", "
            (List.map
               (fun (f, m) ->
                 Printf.sprintf "%s=%s" f (if m then "yes" else "no"))
               fs);
      ]

let plain_trial r entry seed k =
  let sc =
    match entry with
    | None -> Scenario.of_seed seed
    | Some e -> Scenario.Library.plain e ~seed
  in
  let sc =
    match k.strategy with None -> sc | Some s -> Scenario.force_strategy s sc
  in
  let o = Scenario.run ~rebind:k.rebind ~content_cache:k.content_cache sc in
  let features =
    match entry with Some e -> Scenario.Library.check_plain e o | None -> []
  in
  let description = Scenario.describe sc in
  {
    description;
    details =
      (description :: cache_line k)
      @ Printf.sprintf "%d events checked; %d job(s) completed, %d failed"
          o.Scenario.o_events o.Scenario.o_completed o.Scenario.o_failed
        :: features_line features;
    replay =
      Scenario.replay_hint ~forwarding:r.Replay.r_forwarding
        ?strategy:r.Replay.r_strategy ?content_cache:r.Replay.r_content_cache
        sc;
    violations = o.Scenario.o_violations;
    dropped = o.Scenario.o_violations_dropped;
    events = o.Scenario.o_events;
    stuck = 0;
    shed = 0;
    coverage = Coverage.with_features features o.Scenario.o_coverage;
  }

(* The named tokens parse to a pod size of 32 (right for scale-out
   benches); fuzz clusters run 4-12 workstations, so rescale to ~3 pods
   — still a pure function of (token, scenario). *)
let fuzz_placement sv tok =
  let pod_size = max 2 (sv.Scenario.sv_workstations / 3) in
  Option.map
    (function
      | Config.Flat_multicast -> Config.Flat_multicast
      | Config.Pod_sharded _ -> Config.Pod_sharded { pod_size }
      | Config.Load_predictive { alpha; _ } ->
          Config.Load_predictive { pod_size; alpha })
    (Config.placement_of_string tok)

let serve_trial r entry seed k =
  let sv =
    match entry with
    | None -> Scenario.serve_of_seed seed
    | Some e -> Scenario.Library.serve e ~seed
  in
  let placement = Option.bind k.placement (fuzz_placement sv) in
  let o =
    Scenario.run_serve ~rebind:k.rebind ~content_cache:k.content_cache
      ?strategy:k.strategy ?placement sv
  in
  let features =
    match entry with Some e -> Scenario.Library.check_serve e o | None -> []
  in
  let override =
    match k.placement with
    | Some tok when tok <> Scenario.placement_token sv.Scenario.sv_placement ->
        [ "placement override: " ^ tok ]
    | _ -> []
  in
  {
    description =
      Scenario.describe_serve
        (match placement with
        | Some p -> { sv with Scenario.sv_placement = p }
        | None -> sv);
    details =
      (Scenario.describe_serve sv :: override)
      @ cache_line k @ features_line features
      @ [
          Printf.sprintf
            "%d events checked; %d request(s) submitted, %d completed, %d \
             shed, %d stuck"
            o.Scenario.so_events o.Scenario.so_submitted
            o.Scenario.so_completed o.Scenario.so_shed o.Scenario.so_stuck;
        ];
    replay =
      Scenario.replay_serve_hint ~forwarding:r.Replay.r_forwarding
        ?strategy:r.Replay.r_strategy ?placement:k.placement
        ?content_cache:r.Replay.r_content_cache sv;
    violations = o.Scenario.so_violations;
    dropped = o.Scenario.so_violations_dropped;
    events = o.Scenario.so_events;
    stuck = o.Scenario.so_stuck;
    shed = o.Scenario.so_shed;
    coverage = Coverage.with_features features o.Scenario.so_coverage;
  }

(* Library entries are sampled round-robin by seed, so every entry gets
   its share of any contiguous seed range; the entry travels with the
   run, which checks its features. *)
let trial r entries seed =
  let entry = Option.map (fun es -> cycle (Array.of_list es) seed) entries in
  (if r.Replay.r_serve then serve_trial else plain_trial)
    r entry seed (knobs r seed)

type report = {
  shape : shape;
  verbose : bool;
  contract : Coverage.contract;
  trials : trial list;
  coverage : Coverage.t;
}

let entries = function
  | None -> Ok None
  | Some "all" -> Ok (Some Scenario.Library.all)
  | Some name -> (
      match Scenario.Library.find name with
      | Some e -> Ok (Some [ e ])
      | None ->
          Error
            (Printf.sprintf "unknown scenario %S (known: %s, all)" name
               (String.concat ", " Scenario.Library.names)))

let run ~jobs ~count ~base_seed (r : Replay.t) =
  Result.map
    (fun entries ->
      let seeds =
        match r.Replay.r_seed with
        | Some seed -> [ seed ]
        | None -> List.init count (fun i -> base_seed + i)
      in
      let trials =
        Parrun.run ~jobs (List.map (fun seed () -> trial r entries seed) seeds)
      in
      {
        shape = (if r.Replay.r_serve then Serve else Plain);
        verbose = r.Replay.r_seed <> None;
        contract = contract ~serve:r.Replay.r_serve entries;
        trials;
        coverage =
          List.fold_left
            (fun acc (t : trial) -> Coverage.union acc t.coverage)
            Coverage.empty trials;
      })
    (entries r.Replay.r_scenario)

let name = function Plain -> "fuzz" | Serve -> "fuzz --serve"

let stuck_line n = Printf.sprintf "%d request(s) stuck in no terminal state" n

let render_verbose t =
  if not (failed t) then (t.details @ [ "all invariants held" ], true)
  else
    ( t.details
      @ List.map (Format.asprintf "%a" Monitors.pp_violation) t.violations
      @ (if t.dropped > 0 then
           [ Printf.sprintf "(%d further violations not retained)" t.dropped ]
         else [])
      @ (if t.stuck <> 0 then [ stuck_line t.stuck ] else []),
      false )

let fail_block t =
  ("FAIL " ^ t.description)
  :: List.map
       (fun v ->
         Printf.sprintf "  [%s] at %s (event #%d): %s" v.Monitors.vi_monitor
           (Time.to_string v.Monitors.vi_at)
           v.Monitors.vi_seq v.Monitors.vi_detail)
       t.violations
  @ (if t.stuck <> 0 then [ "  " ^ stuck_line t.stuck ] else [])
  @ [ "  REPLAY: " ^ t.replay ]

let render ~require_coverage rep =
  match rep.trials with
  | [ t ] when rep.verbose -> render_verbose t
  | trials ->
      let failures = List.filter failed trials in
      let gaps =
        if require_coverage then Coverage.gaps rep.contract rep.coverage
        else []
      in
      let n = List.length trials in
      let sum f = List.fold_left (fun acc t -> acc + f t) 0 trials in
      let passed = failures = [] && gaps = [] in
      ( List.concat_map fail_block failures
        @ Coverage.report rep.contract rep.coverage
        @ List.map Coverage.gap_line gaps
        @ (if passed then
             [
               Printf.sprintf "%s: %d seeds passed, %d events checked%s"
                 (name rep.shape) n
                 (sum (fun t -> t.events))
                 (match rep.shape with
                 | Plain -> ""
                 | Serve ->
                     Printf.sprintf ", %d shed, 0 stuck"
                       (sum (fun t -> t.shed)));
             ]
           else if failures <> [] then
             [
               Printf.sprintf "%s: %d of %d seeds FAILED" (name rep.shape)
                 (List.length failures) n;
             ]
           else []),
        passed )
