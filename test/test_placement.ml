(* Cross-policy conformance suite for [Placement].

   One parameterized battery runs the same pinned scenario under each
   placement policy — flat multicast, pod-sharded, load-predictive —
   and asserts the invariants every policy must share: every submitted
   program is placed and completes exactly once, a host the failure
   detector marks [Dead] is never selected, in-flight credit drains
   back to zero once the work is done, and the whole traced run is
   byte-identical per seed.

   The flat policy additionally carries a compatibility obligation: it
   is the pre-[Placement] scheduler verbatim, so dispatching through
   the policy must produce the same selection and the same trace as the
   bare [Scheduler.Spine] calls. (The
   committed golden-trace fixtures, generated before the refactor, pin
   the same equivalence end-to-end in runtest.) *)

let sec = Time.of_sec

let policies =
  [
    ("flat", Config.Flat_multicast);
    ("pods", Config.Pod_sharded { pod_size = 3 });
    ("predictive", Config.Load_predictive { pod_size = 3; alpha = 0.3 });
  ]

type run = {
  r_hosts : string list;  (** Selected host per job, submission order. *)
  r_completions : int;
  r_failures : string list;
  r_dead_at_submit : string list;  (** Detector view when jobs launched. *)
  r_selections : int;
  r_pod_count : int;
  r_inflight_after : int;  (** Sum of per-pod in-flight after drain. *)
  r_trace : string;
}

(* The pinned scenario: 9 workstations, ws7 crashes at 1 s, the
   detector is watching, and 8 staggered jobs are submitted from ws0
   starting at 5 s — well after ws7 goes [Dead] — through the
   context-carried policy. *)
let run_one ?(seed = 1985) placement =
  let cfg = { Config.default with Config.placement } in
  let cl =
    Cluster.create ~seed ~workstations:9 ~trace:true ~cfg
      ~faults:[ Faults.Crash_host { host = "ws7"; at = sec 1. } ]
      ()
  in
  let health = Cluster.enable_health cl in
  let eng = Cluster.engine cl in
  let hosts = ref [] in
  let completions = ref 0 in
  let failures = ref [] in
  let dead_at_submit = ref [] in
  (* One shell per job, like interactive users: the wait must be
     outstanding while the program runs (a finished program's logical
     host answers nobody), and [exec_and_wait] releases the placement
     credit on completion — the caller contract [Serve] follows. *)
  List.iter
    (fun i ->
      ignore
        (Cluster.shell cl ~ws:0
           ~name:(Printf.sprintf "shell%d" i)
           (fun ctx ->
             Proc.sleep eng (sec (5. +. (0.5 *. float_of_int i)));
             if i = 0 then dead_at_submit := Health.dead_hosts health;
             match
               Remote_exec.exec_and_wait ctx ~prog:"cc68"
                 ~target:Remote_exec.Any
             with
             | Error e ->
                 failures := Printf.sprintf "job %d: %s" i e :: !failures
             | Ok (h, _, _) ->
                 hosts := (i, h.Remote_exec.h_host) :: !hosts;
                 incr completions)))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  Cluster.run cl ~until:(sec 120.);
  let p = Cluster.placement cl in
  let inflight_after =
    List.fold_left
      (fun acc (_, pod) ->
        match Json_min.member "inflight" pod with
        | Some (Json_min.Num n) -> acc + int_of_float n
        | _ -> acc)
      0 (Placement.pod_stats p)
  in
  {
    r_hosts =
      List.map snd
        (List.sort (fun (a, _) (b, _) -> compare a b) !hosts);
    r_completions = !completions;
    r_failures = List.rev !failures;
    r_dead_at_submit = !dead_at_submit;
    r_selections = Placement.selections p;
    r_pod_count = Placement.pod_count p;
    r_inflight_after = inflight_after;
    r_trace = Tracer.to_jsonl (Cluster.tracer cl);
  }

(* Each policy is run twice (for the determinism check); everything is
   computed once and shared across the test cases. *)
let runs =
  lazy
    (List.map (fun (name, p) -> (name, (run_one p, run_one p))) policies)

let find name = List.assoc name (Lazy.force runs)

(* {1 Conformance: what every policy must share} *)

let test_exactly_once name () =
  let r, _ = find name in
  if r.r_failures <> [] then
    Alcotest.failf "placement failures: %s" (String.concat "; " r.r_failures);
  Alcotest.(check int) "every job selected a host" 8 (List.length r.r_hosts);
  Alcotest.(check int) "every job completed exactly once" 8 r.r_completions;
  if r.r_selections < 8 then
    Alcotest.failf "policy committed %d selections for 8 jobs" r.r_selections;
  Alcotest.(check int) "in-flight credit drained" 0 r.r_inflight_after

let test_no_dead_host name () =
  let r, _ = find name in
  (* The scenario only makes sense if the detector saw the crash. *)
  Alcotest.(check (list string))
    "ws7 was Dead before the first submission" [ "ws7" ] r.r_dead_at_submit;
  List.iteri
    (fun i h ->
      if String.equal h "ws7" then
        Alcotest.failf "job %d was placed on the dead host" i)
    r.r_hosts

let test_deterministic name () =
  let r1, r2 = find name in
  Alcotest.(check bool) "same seed, byte-identical trace" true
    (String.equal r1.r_trace r2.r_trace);
  Alcotest.(check (list string)) "same placements" r1.r_hosts r2.r_hosts

let test_topology () =
  let flat, _ = find "flat" in
  Alcotest.(check int) "flat has no pods" 0 flat.r_pod_count;
  List.iter
    (fun name ->
      let r, _ = find name in
      (* 9 workstations in pods of 3. *)
      Alcotest.(check int) (name ^ " pod count") 3 r.r_pod_count)
    [ "pods"; "predictive" ]

(* {1 Compatibility: flat policy == bare spine}

   Two identically seeded clusters; one selects through the raw
   [Scheduler.Spine] (the documented flat-equivalent calls), the other
   through the flat [Placement] dispatch. Selection results and the full
   traced event streams must both be byte-identical. *)

let selection_sig (s : Scheduler.selection) =
  Printf.sprintf "%s in=%s" s.Scheduler.s_host
    (Time.to_string s.Scheduler.s_responded_in)

let spine_scenario ~via =
  let cl = Cluster.create ~seed:4242 ~workstations:4 ~trace:true () in
  let eng = Cluster.engine cl in
  let picks = ref [] in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         let k = Context.kernel ctx and self = Context.self ctx in
         Proc.sleep eng (sec 1.);
         let any =
           match via with
           | `Spine ->
               Scheduler.Spine.select_in_group k
                 ~group:Ids.program_manager_group ~self ~bytes:(96 * 1024)
           | `Policy ->
               Placement.select_any (Context.placement ctx) k ~self
                 ~bytes:(96 * 1024)
         in
         let named =
           match via with
           | `Spine -> Scheduler.Spine.select_host k ~self ~host:"ws2"
           | `Policy ->
               Placement.select_host (Context.placement ctx) k ~self
                 ~host:"ws2"
         in
         picks :=
           List.map
             (function
               | Ok s -> selection_sig s
               | Error e -> "error: " ^ e)
             [ any; named ]));
  Cluster.run cl ~until:(sec 10.);
  (!picks, Tracer.to_jsonl (Cluster.tracer cl))

let test_flat_matches_spine () =
  let spine_picks, spine_trace = spine_scenario ~via:`Spine in
  let policy_picks, policy_trace = spine_scenario ~via:`Policy in
  Alcotest.(check (list string))
    "same selections through spine and policy" spine_picks policy_picks;
  Alcotest.(check bool) "byte-identical traces" true
    (String.equal spine_trace policy_trace);
  (match spine_picks with
  | pick :: _ when String.length pick > 0 && pick.[0] = 'w' -> ()
  | _ -> Alcotest.failf "expected a workstation pick, got %s"
           (String.concat ", " spine_picks))

let () =
  let case name = Alcotest.test_case name `Slow in
  Alcotest.run "placement"
    [
      ( "exactly-once",
        List.map
          (fun (name, _) -> case name (test_exactly_once name))
          policies );
      ( "no dead hosts",
        List.map
          (fun (name, _) -> case name (test_no_dead_host name))
          policies );
      ( "determinism",
        List.map
          (fun (name, _) -> case name (test_deterministic name))
          policies );
      ( "topology",
        [ case "pod map follows the config" test_topology ] );
      ( "compatibility",
        [ case "flat policy == bare spine" test_flat_matches_spine ] );
    ]
