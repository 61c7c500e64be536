(* Unit tests for the core library's smaller modules: environments,
   contexts, configuration, protocol records, residual analysis, program
   tables and accounting — complementing the cluster-level integration
   tests in test_core.ml. *)

let sec = Time.of_sec

(* {1 Env} *)

let fs_pid = Ids.pid 100 16
let ds_pid = Ids.pid 101 16

let test_env_make_and_lookup () =
  let env =
    Env.make
      ~name_cache:[ ("printer", Ids.pid 102 16) ]
      ~args:[ "-o"; "out.o" ] ~file_server:fs_pid ~display:ds_pid
      ~origin_host:"ws0" ()
  in
  Alcotest.(check bool) "cache hit" true
    (Env.cached_lookup env "printer" = Some (Ids.pid 102 16));
  Alcotest.(check bool) "cache miss" true (Env.cached_lookup env "nope" = None);
  Alcotest.(check string) "origin" "ws0" env.Env.origin_host;
  Alcotest.(check bool) "no name server by default" true
    (env.Env.name_server = None)

let test_env_bytes_grows_with_content () =
  let small = Env.make ~file_server:fs_pid ~display:ds_pid ~origin_host:"a" () in
  let big =
    Env.make
      ~name_cache:[ ("a", fs_pid); ("b", fs_pid); ("c", fs_pid) ]
      ~args:[ "a-rather-long-argument-string" ] ~file_server:fs_pid
      ~display:ds_pid ~origin_host:"a" ()
  in
  if Env.bytes big <= Env.bytes small then
    Alcotest.fail "environment size must reflect contents"

(* {1 Context} *)

let boot_kernels names =
  let eng = Engine.create () in
  let rng = Rng.create 9 in
  let net = Ethernet.create eng (Rng.split rng) in
  let tracer = Tracer.create eng in
  Tracer.set_enabled tracer false;
  let alloc = Ids.Lh_allocator.create () in
  let mk i name =
    Kernel.create ~engine:eng ~rng:(Rng.split rng) ~tracer
      ~params:Os_params.default ~net ~station:(Addr.of_int i) ~host_name:name
      ~allocator:alloc
      ~memory_bytes:(1024 * 1024)
  in
  (eng, List.mapi mk names)

let mini_kernels () =
  match boot_kernels [ "alpha"; "beta" ] with
  | eng, [ ka; kb ] -> (eng, ka, kb)
  | _ -> assert false

let test_directory_locate () =
  let _, ka, kb = mini_kernels () in
  let dir = Directory.of_kernels () in
  Directory.register dir ka;
  Directory.register dir kb;
  Alcotest.(check int) "two kernels" 2 (List.length (Directory.kernels dir));
  let lh = Kernel.create_logical_host kb ~priority:Cpu.Foreground in
  (match Directory.locate dir (Logical_host.id lh) with
  | Some k -> Alcotest.(check string) "on beta" "beta" (Kernel.host_name k)
  | None -> Alcotest.fail "not located");
  Alcotest.(check bool) "current finds it" true
    (Kernel.host_name (Directory.current dir (Logical_host.id lh)) = "beta");
  Alcotest.(check bool) "find_host" true
    (Option.is_some (Directory.find_host dir "alpha"));
  Alcotest.(check bool) "find_host misses" true
    (Directory.find_host dir "gamma" = None)

let test_directory_current_raises_for_unknown () =
  let dir = Directory.of_kernels () in
  match Directory.current dir 424242 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure"

(* What the directory answered before it kept an index: the first kernel,
   in registration order, whose table holds the logical host. *)
let scan dir id =
  List.find_opt (fun k -> Kernel.find_lh k id <> None) (Directory.kernels dir)

let agrees_with_scan dir id =
  match (Directory.locate dir id, scan dir id) with
  | Some a, Some b -> a == b
  | None, None -> true
  | _ -> false

let test_directory_lost_ack_copies () =
  let _, ka, kb = mini_kernels () in
  let dir = Directory.of_kernels () in
  Directory.register dir ka;
  Directory.register dir kb;
  let lh = Kernel.create_logical_host kb ~priority:Cpu.Background in
  let id = Logical_host.id lh in
  let host () = Kernel.host_name (Directory.current dir id) in
  (* A migration beta -> alpha whose install acknowledgement is lost:
     alpha runs the installed copy while beta resurrects its own. *)
  Kernel.freeze_lh kb lh;
  let state = Kernel.extract_lh kb lh in
  Alcotest.(check bool) "nowhere while in flight" true
    (Option.is_none (Directory.locate dir id));
  ignore (Kernel.install_lh ka state);
  ignore (Kernel.install_lh kb state);
  Alcotest.(check string) "first registered copy wins" "alpha" (host ());
  Kernel.destroy_logical_host ka lh;
  Alcotest.(check string) "the other copy remains" "beta" (host ());
  Kernel.shutdown kb;
  Alcotest.(check bool) "a crash evicts every resident" true
    (Option.is_none (Directory.locate dir id)
    && Option.is_none
         (Directory.locate dir (Logical_host.id (Kernel.host_lh kb))));
  Kernel.reboot kb;
  Alcotest.(check bool) "a reboot brings the host logical host back" true
    (agrees_with_scan dir (Logical_host.id (Kernel.host_lh kb))
    && Option.is_some
         (Directory.locate dir (Logical_host.id (Kernel.host_lh kb))))

(* Random residency histories over three kernels, the third registered
   halfway through: after every step the index must name exactly the
   kernel the scan names, for every logical host ever created. *)
let prop_directory_matches_scan =
  QCheck.Test.make ~count:300 ~name:"index = registration-order scan"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let _, ks = boot_kernels [ "alpha"; "beta"; "gamma" ] in
      let ks = Array.of_list ks in
      let dir = Directory.of_kernels () in
      Directory.register dir ks.(0);
      Directory.register dir ks.(1);
      let ids =
        ref (Array.to_list (Array.map (fun k -> Logical_host.id (Kernel.host_lh k)) ks))
      in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let guests k =
        List.filter
          (fun lh -> Logical_host.priority lh = Cpu.Background)
          (Kernel.logical_hosts k)
      in
      let ok = ref true in
      for step = 0 to 39 do
        if step = 20 then Directory.register dir ks.(2);
        let k = ks.(Rng.int rng 3) and k' = ks.(Rng.int rng 3) in
        (* A down kernel holds no guests: nothing is created on it or
           installed into it. *)
        (match (Rng.int rng 6, guests k) with
        | 0, _ when Kernel.running k ->
            let lh = Kernel.create_logical_host k ~priority:Cpu.Background in
            ids := Logical_host.id lh :: !ids
        | 1, (_ :: _ as g) -> Kernel.destroy_logical_host k (pick g)
        | 2, (_ :: _ as g) when Kernel.running k' ->
            let lh = pick g in
            Kernel.freeze_lh k lh;
            ignore (Kernel.install_lh k' (Kernel.extract_lh k lh))
        | 3, (_ :: _ as g) when Kernel.running k' ->
            (* Lost acknowledgement: both copies resident. *)
            let lh = pick g in
            Kernel.freeze_lh k lh;
            let state = Kernel.extract_lh k lh in
            ignore (Kernel.install_lh k' state);
            ignore (Kernel.install_lh k state)
        | 4, _ -> if Kernel.running k then Kernel.shutdown k
        | 5, _ -> if not (Kernel.running k) then Kernel.reboot k
        | _ -> ());
        if not (List.for_all (agrees_with_scan dir) !ids) then ok := false
      done;
      !ok)

(* {1 Config} *)

let test_config_env_spans_sum_to_40ms () =
  Alcotest.(check int) "40 ms"
    (Time.to_us (Time.of_ms 40.))
    (Time.to_us Config.sum_env_spans)

let test_config_precopy_policy_sane () =
  let c = Config.default in
  Alcotest.(check bool) "improvement in (0,1)" true
    (c.Config.precopy_improvement > 0. && c.Config.precopy_improvement < 1.);
  Alcotest.(check bool) "round cap positive" true (Config.precopy_max_rounds > 0);
  Alcotest.(check int) "paper gives up immediately" 0 c.Config.migration_retries

(* {1 Protocol records} *)

let sample_outcome =
  {
    Protocol.m_prog = "tex";
    m_from = "ws1";
    m_dest = "ws2";
    m_strategy = "precopy";
    m_rounds =
      [
        { Protocol.r_bytes = 708 * 1024; r_span = sec 2.1 };
        { Protocol.r_bytes = 127 * 1024; r_span = Time.of_ms 370. };
      ];
    m_final_bytes = 92 * 1024;
    m_freeze_start = sec 10.;
    m_resumed_at = Time.add (sec 10.) (Time.of_ms 310.);
    m_kernel_state = Time.of_ms 32.;
    m_total = sec 2.8;
    m_faultin_bytes = 0;
  }

let test_outcome_accessors () =
  Alcotest.(check int) "freeze span" 310_000
    (Time.to_us (Protocol.freeze_span sample_outcome));
  Alcotest.(check int) "precopied" ((708 + 127) * 1024)
    (Protocol.precopied_bytes sample_outcome)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_outcome_pp () =
  let s = Format.asprintf "%a" Protocol.pp_outcome sample_outcome in
  List.iter
    (fun needle ->
      if not (contains s needle) then Alcotest.failf "missing %S in %S" needle s)
    [ "tex"; "ws1"; "ws2"; "precopy" ]

let test_strategy_names () =
  Alcotest.(check string) "precopy" "precopy" (Protocol.strategy_name Protocol.Precopy);
  Alcotest.(check string) "freeze" "freeze-and-copy"
    (Protocol.strategy_name Protocol.Freeze_and_copy);
  Alcotest.(check string) "vmflush" "vm-flush"
    (Protocol.strategy_name (Protocol.Vm_flush { page_server = fs_pid }))

(* {1 Migration formula} *)

let test_kernel_state_span_formula () =
  let lh = Logical_host.create ~id:1 ~priority:Cpu.Foreground in
  ignore (Logical_host.new_process lh);
  ignore (Logical_host.new_process lh);
  Logical_host.add_space lh
    (Address_space.create ~code_bytes:1024 ~data_bytes:0 ~active_bytes:1024 ());
  (* 2 processes + 1 space: 14 + 9*3 = 41 ms. *)
  Alcotest.(check int) "formula" 41_000
    (Time.to_us (Migration.kernel_state_span lh))

(* {1 Progtable} *)

(* Two managers' views of one registry, over a directory that knows
   both kernels (alpha registered first). *)
let two_views () =
  let _, ka, kb = mini_kernels () in
  let dir = Directory.of_kernels () in
  Directory.register dir ka;
  Directory.register dir kb;
  let reg = Progtable.registry () in
  ( ka,
    kb,
    Progtable.view reg ~directory:dir ka,
    Progtable.view reg ~directory:dir kb )

let with_table f =
  let ka, _, tbl, _ = two_views () in
  f ka tbl

let make_program ka tbl =
  let lh = Kernel.create_logical_host ka ~priority:Cpu.Background in
  let spec = Programs.find "make" in
  let space = Programs.make_space spec in
  Logical_host.add_space lh space;
  let model = Dirty_model.create spec.Programs.dirty space in
  let root = Kernel.create_process ka lh in
  Progtable.add tbl ~lh ~spec
    ~env:(Env.make ~file_server:fs_pid ~display:ds_pid ~origin_host:"x" ())
    ~root ~space ~model ~origin:"x"

let test_progtable_add_find_remove () =
  with_table (fun ka tbl ->
      let p = make_program ka tbl in
      let id = Logical_host.id p.Progtable.p_lh in
      Alcotest.(check int) "listed" 1 (List.length (Progtable.programs tbl));
      (* Physical equality: records hold closures. *)
      Alcotest.(check bool) "find" true
        (match Progtable.find tbl id with Some q -> q == p | None -> false);
      Progtable.remove tbl p;
      Alcotest.(check bool) "removed" true
        (Option.is_none (Progtable.find tbl id)))

(* A record belongs to the manager whose kernel the directory places its
   logical host on: the source before the move, nobody while the host
   is extracted, the destination once installed — and exactly one
   manager when a lost install acknowledgement leaves two copies. *)
let test_progtable_ownership_follows_residency () =
  let ka, kb, ta, tb = two_views () in
  let p = make_program ka ta in
  let lh = p.Progtable.p_lh in
  let id = Logical_host.id lh in
  let owners () =
    List.filter_map
      (fun (name, t) ->
        match Progtable.find t id with
        | Some q ->
            Alcotest.(check bool) (name ^ ": same record") true (q == p);
            Some name
        | None -> None)
      [ ("alpha", ta); ("beta", tb) ]
  in
  let listed t =
    List.map (fun q -> Logical_host.id q.Progtable.p_lh) (Progtable.programs t)
  in
  Alcotest.(check (list string)) "at the source" [ "alpha" ] (owners ());
  Kernel.freeze_lh ka lh;
  let state = Kernel.extract_lh ka lh in
  Alcotest.(check (list string)) "while extracted" [] (owners ());
  Alcotest.(check int) "listed nowhere" 0
    (List.length (listed ta) + List.length (listed tb));
  ignore (Kernel.install_lh kb state);
  Alcotest.(check (list string)) "at the destination" [ "beta" ] (owners ());
  Alcotest.(check (list int)) "listed at the destination" [ id ] (listed tb);
  ignore (Kernel.install_lh ka state);
  Alcotest.(check (list string)) "two copies, one owner" [ "alpha" ]
    (owners ());
  Alcotest.(check int) "listed once" 1
    (List.length (listed ta) + List.length (listed tb))

let test_progtable_charge_accumulates () =
  with_table (fun ka tbl ->
      let p = make_program ka tbl in
      Progtable.charge_cpu p (Time.of_ms 10.);
      Progtable.charge_cpu p (Time.of_ms 5.);
      Alcotest.(check int) "sum" 15_000 (Time.to_us p.Progtable.p_cpu_used))

(* {1 Residual details} *)

let test_residual_lists_name_cache_bindings () =
  let _, ka, kb = mini_kernels () in
  let dir = Directory.of_kernels () in
  Directory.register dir ka;
  Directory.register dir kb;
  let tbl = Progtable.view (Progtable.registry ()) ~directory:dir ka in
  let service_lh = Kernel.create_logical_host kb ~priority:Cpu.Foreground in
  let service_pid = Ids.pid (Logical_host.id service_lh) 16 in
  let lh = Kernel.create_logical_host ka ~priority:Cpu.Background in
  let spec = Programs.find "make" in
  let space = Programs.make_space spec in
  Logical_host.add_space lh space;
  let p =
    Progtable.add tbl ~lh ~spec
      ~env:
        (Env.make
           ~name_cache:[ ("svc", service_pid) ]
           ~file_server:service_pid ~display:service_pid ~origin_host:"alpha" ())
      ~root:(Kernel.create_process ka lh)
      ~space
      ~model:(Dirty_model.create spec.Programs.dirty space)
      ~origin:"alpha"
  in
  let deps = Residual.dependencies dir p in
  (* file-server, display and one cache entry all resolve to beta. *)
  Alcotest.(check int) "three bindings" 3 (List.length deps);
  List.iter
    (fun d -> Alcotest.(check string) "on beta" "beta" d.Residual.d_host)
    deps;
  Alcotest.(check (list string)) "residual hosts (display counted)" [ "beta" ]
    (Residual.residual_hosts dir p);
  Alcotest.(check bool) "depends_on beta" true
    (Residual.depends_on dir p ~host:"beta");
  Alcotest.(check bool) "not on alpha" false
    (Residual.depends_on dir p ~host:"alpha")

(* {1 migrateprog client} *)

(* [Remote_exec.migrate_program ~pm:h.h_pm] addresses the manager of the
   workstation a program started on, so [h_pm] must be that
   workstation's own program-manager pid for every kind of target, and
   stay so across a reboot (the fresh manager keeps the well-known
   pid). *)
let test_handle_pm_is_stable_manager () =
  let cl =
    Cluster.create ~seed:5 ~workstations:3
      ~faults:
        [
          Faults.Crash_host { host = "ws2"; at = sec 20. };
          Faults.Reboot_host { host = "ws2"; at = sec 21. };
        ]
      ()
  in
  let pm_of host =
    Program_manager.pid (Option.get (Cluster.find_workstation cl host)).Cluster.ws_pm
  in
  let handles = ref [] in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         List.iter
           (fun target ->
             match Remote_exec.exec ctx ~prog:"cc68" ~target with
             | Ok h -> handles := h :: !handles
             | Error e -> Alcotest.failf "exec: %s" e)
           [ Remote_exec.Local; Remote_exec.Named "ws2"; Remote_exec.Any ]));
  let check label =
    List.iter
      (fun h ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s's manager" label h.Remote_exec.h_host)
          true
          (Ids.pid_equal h.Remote_exec.h_pm (pm_of h.Remote_exec.h_host)))
      !handles
  in
  Cluster.run cl ~until:(sec 10.);
  Alcotest.(check int) "three programs started" 3 (List.length !handles);
  check "at start";
  Cluster.run cl ~until:(sec 30.);
  check "after ws2 reboots"

(* Every [Mig_start] strategy a traced run emits. *)
let migration_strategies cl =
  let seen = ref [] in
  Tracer.on_event (Cluster.tracer cl) (fun r ->
      match r.Tracer.ev with
      | Migration.Mig_start { strategy; _ } -> seen := strategy :: !seen
      | _ -> ());
  seen

let check_all_precopy label seen =
  Alcotest.(check bool) (label ^ ": migrated") true (seen <> []);
  List.iter (Alcotest.(check string) (label ^ ": strategy") "precopy") seen

(* With no strategy named, a serve session's balancer and the usage
   experiment's owner reclaim both migrate with pre-copy. *)
let test_default_discipline_is_precopy () =
  let cl = Cluster.create ~seed:5 ~workstations:6 ~trace:true () in
  let seen = migration_strategies cl in
  (* Pile guests onto ws2 so the balancer has someone to move. *)
  ignore
    (Cluster.shell cl ~ws:0 ~name:"loader" (fun ctx ->
         for _ = 1 to 3 do
           ignore
             (Remote_exec.exec ctx ~prog:"tex" ~target:(Remote_exec.Named "ws2"))
         done));
  let params =
    {
      Serve.Session.default_params with
      Serve.Session.arrivals = Serve.Session.Poisson 1.5;
      duration = sec 30.;
      balancer_interval = Some (sec 2.);
      strategy = None;
      snapshot_every = None;
      drain_grace = sec 30.;
    }
  in
  Serve.Session.drain (Serve.Session.create ~params cl);
  check_all_precopy "serve balancer" !seen;
  let cl = Cluster.create ~seed:1985 ~workstations:6 ~trace:true () in
  let seen = migration_strategies cl in
  let stats =
    Experiment.usage cl
      { Experiment.default_usage_params with Experiment.u_horizon = sec 180. }
  in
  Alcotest.(check bool) "owner reclaimed a guest" true
    (stats.Experiment.us_preemptions > 0);
  check_all_precopy "owner reclaim" !seen

let () =
  Alcotest.run "v_core_units"
    [
      ( "env",
        [
          Alcotest.test_case "make/lookup" `Quick test_env_make_and_lookup;
          Alcotest.test_case "bytes grow" `Quick test_env_bytes_grows_with_content;
        ] );
      ( "directory",
        [
          Alcotest.test_case "locate/current/find" `Quick test_directory_locate;
          Alcotest.test_case "unknown raises" `Quick
            test_directory_current_raises_for_unknown;
          Alcotest.test_case "lost-ack copies" `Quick
            test_directory_lost_ack_copies;
          QCheck_alcotest.to_alcotest prop_directory_matches_scan;
        ] );
      ( "config",
        [
          Alcotest.test_case "40ms env spans" `Quick
            test_config_env_spans_sum_to_40ms;
          Alcotest.test_case "precopy policy sane" `Quick
            test_config_precopy_policy_sane;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "outcome accessors" `Quick test_outcome_accessors;
          Alcotest.test_case "outcome pp" `Quick test_outcome_pp;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
        ] );
      ( "migration-formula",
        [ Alcotest.test_case "kernel state span" `Quick test_kernel_state_span_formula ] );
      ( "progtable",
        [
          Alcotest.test_case "add/find/remove" `Quick test_progtable_add_find_remove;
          Alcotest.test_case "ownership follows residency" `Quick
            test_progtable_ownership_follows_residency;
          Alcotest.test_case "charge" `Quick test_progtable_charge_accumulates;
        ] );
      ( "residual",
        [
          Alcotest.test_case "name-cache bindings listed" `Quick
            test_residual_lists_name_cache_bindings;
        ] );
      ( "migrateprog",
        [
          Alcotest.test_case "h_pm is the stable manager" `Quick
            test_handle_pm_is_stable_manager;
          Alcotest.test_case "default discipline is precopy" `Quick
            test_default_discipline_is_precopy;
        ] );
    ]
