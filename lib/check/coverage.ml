type counts = (string * int) list

type t = {
  declared : string list;
  fired : counts;
  monitors : counts;
  scenarios : counts;
  strategies : counts;
  placements : counts;
  events : counts;
  features : (string * (int * int)) list;
}

let empty =
  {
    declared = [];
    fired = [];
    monitors = [];
    scenarios = [];
    strategies = [];
    placements = [];
    events = [];
    features = [];
  }

let merge plus a b =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some w -> (k, plus w v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    a b

let union a b =
  {
    declared = List.sort_uniq String.compare (a.declared @ b.declared);
    fired = merge ( + ) a.fired b.fired;
    monitors = merge ( + ) a.monitors b.monitors;
    scenarios = merge ( + ) a.scenarios b.scenarios;
    strategies = merge ( + ) a.strategies b.strategies;
    placements = merge ( + ) a.placements b.placements;
    events = merge ( + ) a.events b.events;
    features =
      merge (fun (d, m) (d', m') -> (d + d', m + m')) a.features b.features;
  }

let count l k = Option.value (List.assoc_opt k l) ~default:0

let with_features verdicts c =
  {
    c with
    features = List.map (fun (f, m) -> (f, (1, Bool.to_int m))) verdicts;
  }

(* {1 Collecting one run}

   A trace subscriber records which extensible trace-event constructors
   were observed — keyed by extension-constructor id, so no per-event
   string hashing and one [Tracer.view] per distinct constructor at the
   end — and which migration strategies actually started, by name from
   [Mig_start]. *)

type census = {
  cluster : Cluster.t;
  monitor : Monitors.t;
  kinds : (int, Tracer.event * int ref) Hashtbl.t;
  started : (string, int ref) Hashtbl.t;
}

let attach cluster monitor =
  let c =
    { cluster; monitor; kinds = Hashtbl.create 64; started = Hashtbl.create 4 }
  in
  Tracer.on_event (Cluster.tracer cluster) (fun r ->
      let ev = r.Tracer.ev in
      let key = Obj.Extension_constructor.(id (of_val ev)) in
      (match Hashtbl.find_opt c.kinds key with
      | Some (_, n) -> incr n
      | None -> Hashtbl.add c.kinds key (ev, ref 1));
      match ev with
      | Migration.Mig_start { strategy; _ } -> (
          match Hashtbl.find_opt c.started strategy with
          | Some n -> incr n
          | None -> Hashtbl.add c.started strategy (ref 1))
      | _ -> ());
  c

let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* Rendered as "category/type" via the registered views; distinct
   constructors mapping to one view key merge their counts. *)
let event_kinds c =
  let merged = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (ev, n) ->
      let v = Tracer.view ev in
      let key = v.Tracer.v_cat ^ "/" ^ v.Tracer.v_type in
      match Hashtbl.find_opt merged key with
      | Some m -> m := !m + !n
      | None -> Hashtbl.add merged key (ref !n))
    c.kinds;
  sorted (Hashtbl.fold (fun k n acc -> (k, !n) :: acc) merged [])

let of_run c ~scenario ~plan ~placement =
  {
    declared = Faults.declared_kinds plan;
    fired =
      (match Cluster.faults c.cluster with
      | Some f -> Faults.fired_counts f
      | None -> []);
    monitors = Monitors.coverage c.monitor;
    scenarios = (match scenario with Some l -> [ (l, 1) ] | None -> []);
    strategies =
      sorted (Hashtbl.fold (fun k n acc -> (k, !n) :: acc) c.started []);
    placements =
      (match placement with
      | Some p when Placement.selections p > 0 -> [ (Placement.name p, 1) ]
      | _ -> []);
    events = event_kinds c;
    features = [];
  }

(* {1 The contract} *)

type contract =
  | Free_form
  | Library of {
      scenarios : string list;
      strategies : string list;
      features : string list;
      placements : string list;
    }

type gap =
  | Fault_never_fired of string
  | Monitor_idle of string
  | Scenario_never_ran of string
  | Strategy_never_started of string
  | Feature_never_materialized of string
  | Placement_never_dispatched of string
  | No_manifest

let declared_kinds c =
  List.filter (fun k -> List.mem k c.declared) Faults.all_kinds

let gaps contract c =
  let unmet gap counts =
    List.filter_map (fun k -> if count counts k = 0 then Some (gap k) else None)
  in
  (* The dedup monitor only sees events when caching is on, which the
     free-form runs do not promise; the library contract does. *)
  let monitors =
    List.filter
      (fun m -> contract <> Free_form || m <> "dedup")
      Monitors.monitor_names
  in
  unmet (fun k -> Fault_never_fired k) c.fired (declared_kinds c)
  @ unmet (fun m -> Monitor_idle m) c.monitors monitors
  @
  match contract with
  | Free_form -> []
  | Library x ->
      unmet (fun s -> Scenario_never_ran s) c.scenarios x.scenarios
      @ unmet (fun s -> Strategy_never_started s) c.strategies x.strategies
      @ unmet
          (fun f -> Feature_never_materialized f)
          (List.map (fun (f, (_, m)) -> (f, m)) c.features)
          x.features
      @ unmet
          (fun p -> Placement_never_dispatched p)
          c.placements x.placements
      @ if count c.events "xfer/manifest" = 0 then [ No_manifest ] else []

let gap_line g =
  "COVERAGE FAIL: "
  ^
  match g with
  | Fault_never_fired k ->
      Printf.sprintf "fault kind %S was declared but never fired" k
  | Monitor_idle m -> Printf.sprintf "monitor %S never inspected an event" m
  | Scenario_never_ran s -> Printf.sprintf "scenario %S never ran" s
  | Strategy_never_started s ->
      Printf.sprintf "strategy %S never started a migration" s
  | Feature_never_materialized f ->
      Printf.sprintf "feature %S never materialized" f
  | Placement_never_dispatched p ->
      Printf.sprintf "placement %S never dispatched a selection" p
  | No_manifest ->
      "content-addressed transfer never exercised (no xfer/manifest events)"

(* {1 The report} *)

let keys l = List.sort_uniq String.compare (List.map fst l)

let fmt_counts counts = function
  | [] -> "(none)"
  | ks ->
      String.concat ", "
        (List.map (fun k -> Printf.sprintf "%s=%d" k (count counts k)) ks)

let dedup_kinds =
  [ "xfer/manifest"; "xfer/hit"; "xfer/miss"; "img/hit"; "img/miss" ]

let report contract c =
  let library = contract <> Free_form in
  let declared = declared_kinds c in
  let kinds = keys c.events in
  (match contract with
  | Library x -> [ "scenario coverage: " ^ fmt_counts c.scenarios x.scenarios ]
  | Free_form -> [])
  @ [
      "fault coverage: "
      ^ (if declared = [] then "(no fault kinds declared)"
         else fmt_counts c.fired declared);
      "monitor coverage: " ^ fmt_counts c.monitors Monitors.monitor_names;
      "strategy coverage: " ^ fmt_counts c.strategies (keys c.strategies);
    ]
  @ (if c.placements = [] then []
     else
       [ "placement coverage: " ^ fmt_counts c.placements (keys c.placements) ])
  @ [ "dedup coverage: " ^ fmt_counts c.events dedup_kinds ]
  @ (if not library then []
     else
       [
         "feature coverage: "
         ^
         match keys c.features with
         | [] -> "(none declared)"
         | fs ->
             String.concat ", "
               (List.map
                  (fun f ->
                    let d, m = List.assoc f c.features in
                    Printf.sprintf "%s=%d/%d" f m d)
                  fs);
       ])
  @ [
      Printf.sprintf "trace coverage: %d event kinds: %s" (List.length kinds)
        (fmt_counts c.events kinds);
    ]
