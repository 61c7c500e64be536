(* Cross-strategy conformance and differential suite.

   One parameterized battery runs the same pinned migration scenario
   under each copy discipline and asserts the invariants every strategy
   must share: the program's terminal output matches local execution
   (modulo completion time), it completes exactly once with its full CPU
   demand, the logical host ends up on the destination and nowhere else,
   and the whole traced run is deterministic per seed.

   What must *differ* is asserted too: freeze-and-copy's freeze window
   strictly dominates pre-copy's, and only copy-on-reference leaves the
   source serving page faults after commit — the residual dependency the
   [residual] monitor must attribute, and must stay silent about for the
   other two disciplines. *)

let sec = Time.of_sec

let strategies =
  [
    ("precopy", Protocol.Precopy);
    ("freeze-and-copy", Protocol.Freeze_and_copy);
    ("copy-on-reference", Protocol.Copy_on_reference);
  ]

(* "cc68: done (6.123s)" -> "cc68: done" — completion instants
   legitimately differ across copy disciplines. *)
let strip_time line =
  match String.index_opt line '(' with
  | Some i -> String.trim (String.sub line 0 i)
  | None -> line

type run = {
  r_outcome : Protocol.migration_outcome;
  r_completions : int;
  r_cpu : Time.span;
  r_src_holds_lh : bool;  (** Source still has the logical host after commit. *)
  r_dest_holds_lh : bool;
  r_lines : string list;  (** Origin workstation's display. *)
  r_trace : string;  (** Full JSONL event stream. *)
  r_violations : Monitors.violation list;
  r_fault_serves : int;  (** Post-commit pages served by any source kernel. *)
}

(* The pinned scenario: exec cc68 from ws0, migrate it mid-run with the
   given discipline, then wait for it — the wait crosses the rebind, so
   a stale binding cache would fail it. *)
let run_one ?(seed = 1985) strategy =
  let cl = Cluster.create ~seed ~workstations:4 ~trace:true () in
  let mon = Monitors.attach (Cluster.tracer cl) in
  let eng = Cluster.engine cl in
  let outcome = ref None in
  let holds = ref None in
  let completions = ref 0 in
  let cpu = ref Time.zero in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match Remote_exec.exec ctx ~prog:"cc68" ~target:Remote_exec.Any with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h -> (
             Proc.sleep eng (sec 2.);
             (match
                Remote_exec.migrate_program ~strategy ~pm:h.Remote_exec.h_pm
                  ctx h
              with
             | Ok o ->
                 outcome := Some o;
                 let holds_lh host =
                   match Cluster.find_workstation cl host with
                   | Some w ->
                       Kernel.find_lh w.Cluster.ws_kernel h.Remote_exec.h_lh
                       <> None
                   | None -> false
                 in
                 holds :=
                   Some (holds_lh o.Protocol.m_from, holds_lh o.Protocol.m_dest)
             | Error _ -> Alcotest.fail "migration failed");
             match Remote_exec.wait ctx h with
             | Ok (_, c) ->
                 cpu := c;
                 incr completions
             | Error e -> Alcotest.failf "wait: %s" e)));
  Cluster.run cl ~until:(sec 120.);
  let outcome =
    match !outcome with
    | Some o -> o
    | None -> Alcotest.fail "scenario never migrated"
  in
  let src_holds, dest_holds =
    match !holds with Some p -> p | None -> (false, false)
  in
  {
    r_outcome = outcome;
    r_completions = !completions;
    r_cpu = !cpu;
    r_src_holds_lh = src_holds;
    r_dest_holds_lh = dest_holds;
    r_lines =
      Display_server.output (Cluster.workstation cl 0).Cluster.ws_display;
    r_trace = Tracer.to_jsonl (Cluster.tracer cl);
    r_violations = Monitors.violations mon;
    r_fault_serves = Cluster.sum_stat cl Kernel.Page_fault_serves;
  }

(* Each strategy is run twice (for the determinism check); everything is
   computed once and shared across the test cases. *)
let runs =
  lazy (List.map (fun (name, s) -> (name, (run_one s, run_one s))) strategies)

let find name = List.assoc name (Lazy.force runs)

(* The same program run locally, never migrated: the output oracle. *)
let baseline_lines =
  lazy
    (let cl = Cluster.create ~seed:1985 ~workstations:4 () in
     ignore
       (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
            match
              Remote_exec.exec_and_wait ctx ~prog:"cc68"
                ~target:Remote_exec.Local
            with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "local exec: %s" e));
     Cluster.run cl ~until:(sec 120.);
     Display_server.output (Cluster.workstation cl 0).Cluster.ws_display)

(* {1 Conformance: what every strategy must share} *)

let test_conformance name () =
  let r, _ = find name in
  Alcotest.(check int) "completed exactly once" 1 r.r_completions;
  (* cc68 demands 6 s of CPU wherever (and however often) it runs. *)
  let cpu_s = Time.to_sec r.r_cpu in
  if cpu_s < 5.9 || cpu_s > 6.1 then
    Alcotest.failf "cpu %.2f s, expected ~6" cpu_s;
  Alcotest.(check bool) "source no longer holds the logical host" false
    r.r_src_holds_lh;
  Alcotest.(check bool) "destination holds the logical host" true
    r.r_dest_holds_lh;
  Alcotest.(check (list string))
    "display output matches local execution (modulo completion time)"
    (List.map strip_time (Lazy.force baseline_lines))
    (List.map strip_time r.r_lines)

let test_deterministic name () =
  let r1, r2 = find name in
  Alcotest.(check bool) "same seed, byte-identical trace" true
    (String.equal r1.r_trace r2.r_trace);
  Alcotest.(check int) "same violations" (List.length r1.r_violations)
    (List.length r2.r_violations)

(* {1 Differential: what must differ between strategies} *)

let test_freeze_ordering () =
  let freeze name =
    let r, _ = find name in
    Time.to_ms (Protocol.freeze_span r.r_outcome)
  in
  let pre = freeze "precopy"
  and frz = freeze "freeze-and-copy"
  and cor = freeze "copy-on-reference" in
  if not (frz > pre) then
    Alcotest.failf "freeze-and-copy froze %.1f ms <= pre-copy's %.1f ms" frz pre;
  if not (frz > cor) then
    Alcotest.failf "freeze-and-copy froze %.1f ms <= copy-on-reference's %.1f ms"
      frz cor

let test_residual_only_for_cor () =
  List.iter
    (fun name ->
      let r, _ = find name in
      Alcotest.(check int)
        (name ^ ": no post-commit page service") 0 r.r_fault_serves;
      Alcotest.(check int) (name ^ ": no violations") 0
        (List.length r.r_violations))
    [ "precopy"; "freeze-and-copy" ];
  let cor, _ = find "copy-on-reference" in
  if cor.r_fault_serves <= 0 then
    Alcotest.fail "copy-on-reference must fault pages from the source";
  let residuals =
    List.filter
      (fun v -> v.Monitors.vi_monitor = "residual")
      cor.r_violations
  in
  if residuals = [] then
    Alcotest.fail "residual monitor must flag copy-on-reference";
  Alcotest.(check int) "every violation is the residual dependency"
    (List.length cor.r_violations)
    (List.length residuals)

let test_cor_moves_nothing_upfront () =
  let cor, _ = find "copy-on-reference" in
  let o = cor.r_outcome in
  Alcotest.(check int) "no pre-copy rounds" 0 (List.length o.Protocol.m_rounds);
  Alcotest.(check int) "no frozen residue" 0 o.Protocol.m_final_bytes;
  if o.Protocol.m_faultin_bytes <= 0 then
    Alcotest.fail "whole space must be left to fault in"

let () =
  let case name = Alcotest.test_case name `Slow in
  Alcotest.run "strategies"
    [
      ( "conformance",
        List.map
          (fun (name, _) -> case name (test_conformance name))
          strategies );
      ( "determinism",
        List.map
          (fun (name, _) -> case name (test_deterministic name))
          strategies );
      ( "differential",
        [
          case "freeze window ordering" test_freeze_ordering;
          case "residual dependency only for copy-on-reference"
            test_residual_only_for_cor;
          case "copy-on-reference defers the whole copy"
            test_cor_moves_nothing_upfront;
        ] );
    ]
