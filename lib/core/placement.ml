(* Pluggable placement policies over the shared candidate spine
   (Scheduler.Spine). A policy decides which scheduling group(s) to
   offer work to and in what order; the spine does the actual
   multicast/bid/first-responder mechanics, so every policy inherits the
   paper's decentralized bidding within whatever domain it picks.

   [flat_multicast] is the paper's scheduler verbatim: one global
   multicast domain. [pod_sharded] partitions the cluster into pods of
   at most [pod_size] workstations, each its own multicast domain, and
   routes between pods by gossiped load summaries (EWMA of queue depth
   and idle-host count). [load_predictive] additionally smooths the
   observed placement arrival rate per pod and skips pods whose
   predicted occupancy would saturate them before their next gossip
   refresh. *)

type pod = {
  pd_index : int;
  pd_group : Ids.pid;
  pd_label : string;
  mutable pd_hosts : int;
  mutable pd_queue_ewma : float;  (* gossiped queue depth (guest programs) *)
  mutable pd_idle_ewma : float;  (* gossiped idle-host count *)
  mutable pd_inflight : int;  (* placements outstanding via this pod *)
  mutable pd_rate_ewma : float;  (* smoothed placements/s routed here *)
  mutable pd_last_select : Time.t option;
  mutable pd_window : float;  (* credit window (AIMD backpressure) *)
  mutable pd_gossips : int;
}

type tier = { t_group : Ids.pid; t_label : string }

type t = {
  p_placement : Config.placement;
  p_pod_size : int;
  p_max_guests : int;
  p_alpha : float;
  mutable p_pods : pod array;  (* empty under the flat policy *)
  p_pod_of : (string, int) Hashtbl.t;
  mutable p_selections : int;
  mutable p_timeouts : int;
}

let name t = Config.placement_name t.p_placement
let selections t = t.p_selections
let timeouts t = t.p_timeouts
let pod_count t = Array.length t.p_pods

let pod_of t ~host = Hashtbl.find_opt t.p_pod_of host

let pod_stats t =
  Array.to_list t.p_pods
  |> List.map (fun pd ->
         ( pd.pd_label,
           Json_min.Obj
             [
               ("hosts", Json_min.Num (float_of_int pd.pd_hosts));
               ("queue_ewma", Num pd.pd_queue_ewma);
               ("idle_ewma", Num pd.pd_idle_ewma);
               ("inflight", Num (float_of_int pd.pd_inflight));
               ("window", Num pd.pd_window);
               ("gossips", Num (float_of_int pd.pd_gossips));
             ] ))

(* --- runtime state updates ------------------------------------------- *)

let pod_capacity t pd = float_of_int (pd.pd_hosts * t.p_max_guests)

let ensure_pod t i =
  let n = Array.length t.p_pods in
  if i >= n then begin
    let fresh j =
      {
        pd_index = j;
        pd_group = Ids.pod_group j;
        pd_label = Printf.sprintf "pod-%d" j;
        pd_hosts = 0;
        pd_queue_ewma = 0.;
        pd_idle_ewma = 0.;
        pd_inflight = 0;
        pd_rate_ewma = 0.;
        pd_last_select = None;
        pd_window = 0.;
        pd_gossips = 0;
      }
    in
    t.p_pods <-
      Array.init (i + 1) (fun j -> if j < n then t.p_pods.(j) else fresh j)
  end;
  t.p_pods.(i)

let register_host t ~host ~pod =
  if t.p_pod_size > 0 then begin
    let pd = ensure_pod t pod in
    if not (Hashtbl.mem t.p_pod_of host) then begin
      pd.pd_hosts <- pd.pd_hosts + 1;
      (* An unheard-from pod starts optimistic: all hosts presumed idle,
         credit window wide open. Gossip corrects both. *)
      pd.pd_idle_ewma <- float_of_int pd.pd_hosts;
      pd.pd_window <- pod_capacity t pd
    end;
    Hashtbl.replace t.p_pod_of host pod
  end

let note_pod_load t ~pod ~queue ~idle =
  if pod >= 0 && pod < Array.length t.p_pods then begin
    let pd = t.p_pods.(pod) in
    let a = t.p_alpha in
    pd.pd_queue_ewma <-
      (a *. float_of_int queue) +. ((1. -. a) *. pd.pd_queue_ewma);
    pd.pd_idle_ewma <-
      (a *. float_of_int idle) +. ((1. -. a) *. pd.pd_idle_ewma);
    pd.pd_gossips <- pd.pd_gossips + 1
  end

let release t ~host =
  match pod_of t ~host with
  | Some i when i < Array.length t.p_pods ->
      let pd = t.p_pods.(i) in
      pd.pd_inflight <- Stdlib.max 0 (pd.pd_inflight - 1)
  | _ -> ()

(* Success is left to the caller's explicit [release]: a served program
   holds its credit for its whole lifetime. *)
let note_result t ~host ~ok = if not ok then release t ~host

(* --- credit windows (backpressure) ----------------------------------- *)

let note_queue_pressure t ~over =
  Array.iter
    (fun pd ->
      let cap = Stdlib.max 1. (pod_capacity t pd) in
      if over then pd.pd_window <- Float.max 1. (pd.pd_window *. 0.5)
      else pd.pd_window <- Float.min cap (pd.pd_window +. 1.))
    t.p_pods

let has_credit pd = float_of_int pd.pd_inflight < pd.pd_window

let admit t =
  Array.length t.p_pods = 0 || Array.exists has_credit t.p_pods

(* --- the three policies ----------------------------------------------- *)

let flat_tier = { t_group = Ids.program_manager_group; t_label = "*" }

let note_select t ~now (s : Scheduler.selection) =
  t.p_selections <- t.p_selections + 1;
  match pod_of t ~host:s.Scheduler.s_host with
  | Some i when i < Array.length t.p_pods ->
      let pd = t.p_pods.(i) in
      pd.pd_inflight <- pd.pd_inflight + 1;
      (match pd.pd_last_select with
      | Some last when Time.(now > last) ->
          let dt = Time.to_sec (Time.sub now last) in
          let inst = if dt > 0. then 1. /. dt else pd.pd_rate_ewma in
          let a = t.p_alpha in
          pd.pd_rate_ewma <- (a *. inst) +. ((1. -. a) *. pd.pd_rate_ewma)
      | _ -> ());
      pd.pd_last_select <- Some now
  | _ -> ()

(* Pod routing score: lower is better. A pod with idle hosts and a short
   gossiped queue wins; outstanding placements we routed there since the
   last gossip count against it so a burst spreads instead of dogpiling
   the pod that looked emptiest one cycle ago. *)
let pod_score pd =
  (pd.pd_queue_ewma +. float_of_int pd.pd_inflight) /. (pd.pd_idle_ewma +. 1.)

(* How many pod tiers to try before falling back to the global group.
   Each extra tier costs at most one select timeout, so keep it small;
   the global fallback guarantees liveness under stale summaries. *)
let pod_fanout = 2

(* Predictive saturation test: occupancy now plus the arrivals the
   smoothed rate predicts before the next gossip refresh would exceed
   the pod's guest capacity. [lookahead] approximates the gossip cycle. *)
let predictive_lookahead = 1.0 (* seconds *)

let predicted_occupancy pd =
  pd.pd_queue_ewma +. float_of_int pd.pd_inflight
  +. (pd.pd_rate_ewma *. predictive_lookahead)

(* The one difference between the policies: which pods are too full to
   offer work to. The flat policy has no pods, so only its global tier
   is ever offered. *)
let saturated t pd =
  match t.p_placement with
  | Config.Flat_multicast -> true
  | Config.Pod_sharded _ -> not (has_credit pd)
  | Config.Load_predictive _ ->
      (not (has_credit pd)) || predicted_occupancy pd >= pod_capacity t pd

(* Ordered multicast tiers to offer a program to: the best
   [pod_fanout] unsaturated pods, then the global group. *)
let tiers t =
  let pods =
    Array.to_list t.p_pods
    |> List.filter (fun pd -> pd.pd_hosts > 0 && not (saturated t pd))
  in
  let scored = List.map (fun pd -> (pod_score pd, pd)) pods in
  let sorted =
    List.sort
      (fun (a, pa) (b, pb) ->
        let c = Float.compare a b in
        if c <> 0 then c else Int.compare pa.pd_index pb.pd_index)
      scored
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (_, pd) :: rest ->
        { t_group = pd.pd_group; t_label = pd.pd_label } :: take (n - 1) rest
  in
  take pod_fanout sorted @ [ flat_tier ]

(* --- construction ---------------------------------------------------- *)

let of_config (cfg : Config.t) =
  let placement = cfg.Config.placement in
  {
    p_placement = placement;
    p_pod_size = Config.placement_pod_size placement;
    p_max_guests = cfg.Config.max_guests;
    p_alpha =
      (match placement with
      | Config.Load_predictive { alpha; _ } -> alpha
      | _ -> 0.3);
    p_pods = [||];
    p_pod_of = Hashtbl.create 64;
    p_selections = 0;
    p_timeouts = 0;
  }

let pod_size t = t.p_pod_size

(* --- selection entry points ------------------------------------------ *)

let select_any ?health ?(exclude = []) t k ~self ~bytes =
  let now = Engine.now (Kernel.engine k) in
  let rec go last_err = function
    | [] ->
        Option.value last_err ~default:(Error "no idle workstation volunteered")
    | tier :: rest -> (
        match
          Scheduler.Spine.select_in_group ?health ~exclude
            ~label:tier.t_label k ~group:tier.t_group ~self ~bytes
        with
        | Ok s ->
            note_select t ~now s;
            Ok s
        | Error e ->
            t.p_timeouts <- t.p_timeouts + 1;
            go (Some (Error e)) rest)
  in
  go None (tiers t)

let select_host ?health t k ~self ~host =
  let now = Engine.now (Kernel.engine k) in
  match Scheduler.Spine.select_host ?health k ~self ~host with
  | Ok s ->
      note_select t ~now s;
      Ok s
  | Error e ->
      t.p_timeouts <- t.p_timeouts + 1;
      Error e

(* Survey groups for load-balancing sweeps: the balancer scopes its
   Pm_list_programs survey to one pod's group at a time under a sharded
   policy, or the global group under the flat one. *)
let survey_groups t =
  if Array.length t.p_pods = 0 then [ Ids.program_manager_group ]
  else
    Array.to_list t.p_pods
    |> List.filter (fun pd -> pd.pd_hosts > 0)
    |> List.map (fun pd -> pd.pd_group)
