(* Second batch of V-kernel tests: logical-host bookkeeping, the
   paper's process-creation order, cost accounting, and the gnarlier
   migration interleavings (multi-hop chains, simultaneous swaps). *)

let ms = Time.of_ms
let sec = Time.of_sec

type fixture = {
  eng : Engine.t;
  net : Packet.t Ethernet.t;
  kernels : Kernel.t array;
}

let setup ?(hosts = 3) ?(params = Os_params.default) () =
  let eng = Engine.create () in
  let rng = Rng.create 42 in
  let net = Ethernet.create eng (Rng.split rng) in
  let tracer = Tracer.create eng in
  Tracer.set_enabled tracer false;
  let alloc = Ids.Lh_allocator.create () in
  let kernels =
    Array.init hosts (fun i ->
        Kernel.create ~engine:eng ~rng:(Rng.split rng) ~tracer ~params ~net
          ~station:(Addr.of_int i)
          ~host_name:(Printf.sprintf "ws%d" i)
          ~allocator:alloc
          ~memory_bytes:(2 * 1024 * 1024))
  in
  { eng; net; kernels }

(* {1 Logical host bookkeeping} *)

let test_lh_process_indices () =
  let lh = Logical_host.create ~id:7 ~priority:Cpu.Foreground ~home:"x" in
  let a = Logical_host.new_process lh in
  let b = Logical_host.new_process lh in
  Alcotest.(check int) "first index" Ids.first_user_index (Vproc.pid a).Ids.index;
  Alcotest.(check int) "second index" (Ids.first_user_index + 1) (Vproc.pid b).Ids.index;
  Alcotest.(check int) "count" 2 (Logical_host.process_count lh);
  Alcotest.(check bool) "find" true
    (Logical_host.find_process lh Ids.first_user_index == Some a |> fun _ ->
     Logical_host.find_process lh Ids.first_user_index <> None);
  Alcotest.(check bool) "missing" true (Logical_host.find_process lh 99 = None)

let test_lh_memory_accounting () =
  let lh = Logical_host.create ~id:8 ~priority:Cpu.Background ~home:"x" in
  let sp1 = Address_space.create ~code_bytes:10_240 ~data_bytes:0 ~active_bytes:10_240 () in
  let sp2 = Address_space.create ~code_bytes:0 ~data_bytes:0 ~active_bytes:5_120 () in
  Logical_host.add_space lh sp1;
  Logical_host.add_space lh sp2;
  Alcotest.(check int) "total" (25 * 1024) (Logical_host.total_bytes lh);
  Address_space.touch sp1 0;
  Address_space.touch sp2 1;
  Alcotest.(check int) "dirty" 2048 (Logical_host.dirty_bytes lh);
  Alcotest.(check int) "clear returns" 2048 (Logical_host.clear_dirty lh);
  Alcotest.(check int) "clean" 0 (Logical_host.dirty_bytes lh)

let test_lh_gate_blocks_while_frozen () =
  let eng = Engine.create () in
  let lh = Logical_host.create ~id:9 ~priority:Cpu.Foreground ~home:"x" in
  Logical_host.set_frozen lh true;
  let passed_at = ref Time.zero in
  ignore
    (Proc.spawn eng ~name:"gated" (fun () ->
         Logical_host.gate lh ();
         passed_at := Engine.now eng));
  ignore
    (Engine.schedule eng ~at:(ms 50.) (fun () ->
         Logical_host.set_frozen lh false;
         Logical_host.thaw lh));
  Engine.run eng;
  Alcotest.(check int) "released at thaw" 50_000 (Time.to_us !passed_at)

let test_lh_deferred_op_order () =
  let lh = Logical_host.create ~id:10 ~priority:Cpu.Foreground ~home:"x" in
  let d i =
    {
      Delivery.src = Ids.pid 1 16;
      dst = Ids.pid 10 1;
      txn = i;
      msg = Message.make Message.Ping;
      origin = Delivery.Local;
    }
  in
  Logical_host.defer_op lh (d 1);
  Logical_host.defer_op lh (d 2);
  let taken = Logical_host.take_deferred lh in
  Alcotest.(check (list int)) "fifo" [ 1; 2 ]
    (List.map (fun (x : Delivery.t) -> x.Delivery.txn) taken);
  Alcotest.(check int) "emptied" 0 (List.length (Logical_host.take_deferred lh))

(* {1 The paper's creation order: exist first, run later} *)

let test_create_then_start_process () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  let vp = Kernel.create_process k lh in
  (* The process exists and is addressable before it runs: a send to it
     queues. *)
  let client_done = ref false in
  let clh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k clh ~name:"client" (fun cvp ->
         match
           Kernel.send k ~src:(Vproc.pid cvp) ~dst:(Vproc.pid vp)
             (Message.make Message.Ping)
         with
         | Ok m when m.Message.body = Message.Pong -> client_done := true
         | _ -> ()));
  (* Start the body 100 ms later; it answers the queued request. *)
  ignore
    (Engine.schedule fx.eng ~at:(ms 100.) (fun () ->
         Kernel.start_process k vp ~name:"late-server" (fun vp ->
             let d = Kernel.receive k vp in
             Kernel.reply k d (Message.make Message.Pong))));
  Engine.run fx.eng ~until:(sec 5.);
  Alcotest.(check bool) "queued request answered after start" true !client_done

(* {1 Cost accounting} *)

let test_group_lookup_surcharge () =
  (* Sending to the kernel server via its local-group id must cost the
     group_lookup surcharge relative to a direct-pid send of the same
     shape. *)
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  let ks_group = Ids.kernel_server_of (Logical_host.id (Kernel.host_lh k)) in
  let spans = ref [] in
  ignore
    (Kernel.spawn_process k lh ~name:"prober" (fun vp ->
         let self = Vproc.pid vp in
         let time_one dst =
           let t0 = Engine.now fx.eng in
           ignore (Kernel.send k ~src:self ~dst (Message.make Kernel.Ks_ping));
           Time.to_us (Time.sub (Engine.now fx.eng) t0)
         in
         (* Warm first, then measure. *)
         ignore (time_one ks_group);
         spans := [ time_one ks_group ]));
  Engine.run fx.eng ~until:(sec 5.);
  match !spans with
  | [ group_send ] ->
      let p = Os_params.default in
      let base =
        (2 * Time.to_us p.Os_params.local_op)
        + (2 * Time.to_us p.Os_params.frozen_check)
      in
      let expected = base + Time.to_us p.Os_params.group_lookup in
      Alcotest.(check int) "send+reply+lookup" expected group_send
  | _ -> Alcotest.fail "no measurement"

let test_zero_overhead_params () =
  (* With the migration-support overheads ablated, a local round trip is
     exactly two base ops. *)
  let params =
    {
      Os_params.default with
      Os_params.frozen_check = Time.zero;
      group_lookup = Time.zero;
    }
  in
  let fx = setup ~hosts:1 ~params () in
  let k = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  let span = ref 0 in
  ignore
    (Kernel.spawn_process k lh ~name:"prober" (fun vp ->
         let self = Vproc.pid vp in
         let ks = Ids.kernel_server_of (Logical_host.id (Kernel.host_lh k)) in
         let t0 = Engine.now fx.eng in
         ignore (Kernel.send k ~src:self ~dst:ks (Message.make Kernel.Ks_ping));
         span := Time.to_us (Time.sub (Engine.now fx.eng) t0)));
  Engine.run fx.eng ~until:(sec 5.);
  Alcotest.(check int) "two base ops"
    (2 * Time.to_us Os_params.default.Os_params.local_op)
    !span

(* {1 Hard migration interleavings} *)

let echo_server fx k =
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  let served = ref 0 in
  let vp =
    Kernel.spawn_process k lh ~name:"echo" (fun vp ->
        let rec loop () =
          let cur =
            (* Receive via whichever kernel hosts us now. *)
            Array.to_list fx.kernels
            |> List.find (fun k -> Kernel.find_lh k (Vproc.pid vp).Ids.lh <> None)
          in
          let d = Kernel.receive cur vp in
          incr served;
          Kernel.reply cur d (Message.make Message.Pong);
          loop ()
        in
        loop ())
  in
  (lh, Vproc.pid vp, served)

let migrate_lh ~from_k ~to_k lh =
  Kernel.freeze_lh from_k lh;
  let st = Kernel.extract_lh from_k lh in
  let lh' = Kernel.install_lh to_k st in
  Kernel.unfreeze_lh to_k lh';
  Kernel.announce_lh to_k (Logical_host.id lh')

let test_multi_hop_migration_chain () =
  let fx = setup ~hosts:4 () in
  let server_lh, pid, served = echo_server fx fx.kernels.(1) in
  (* Hop the server ws1 -> ws2 -> ws3 -> ws1 while a client pings every
     200 ms. Every ping must be answered exactly once. *)
  let hops = [ (1, 2); (2, 3); (3, 1) ] in
  List.iteri
    (fun i (a, b) ->
      ignore
        (Engine.schedule fx.eng
           ~at:(ms (float_of_int ((i + 1) * 700)))
           (fun () ->
             ignore
               (Proc.spawn fx.eng ~name:"migrator" (fun () ->
                    migrate_lh ~from_k:fx.kernels.(a) ~to_k:fx.kernels.(b)
                      server_lh)))))
    hops;
  let ok = ref 0 in
  let clh = Kernel.create_logical_host fx.kernels.(0) ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process fx.kernels.(0) clh ~name:"client" (fun vp ->
         for _ = 1 to 15 do
           (match
              Kernel.send fx.kernels.(0) ~src:(Vproc.pid vp) ~dst:pid
                (Message.make Message.Ping)
            with
           | Ok _ -> incr ok
           | Error _ -> ());
           Proc.sleep fx.eng (ms 200.)
         done));
  Engine.run fx.eng ~until:(sec 60.);
  Alcotest.(check int) "every ping answered" 15 !ok;
  Alcotest.(check int) "exactly once each" 15 !served;
  Alcotest.(check bool) "ended on ws1" true
    (Kernel.find_lh fx.kernels.(1) (Logical_host.id server_lh) <> None)

let test_simultaneous_swap () =
  (* Two logical hosts cross-migrate between the same pair of kernels at
     the same instant. *)
  let fx = setup ~hosts:2 () in
  let lh_a, pid_a, served_a = echo_server fx fx.kernels.(0) in
  let lh_b, pid_b, served_b = echo_server fx fx.kernels.(1) in
  ignore
    (Engine.schedule fx.eng ~at:(ms 100.) (fun () ->
         ignore
           (Proc.spawn fx.eng ~name:"m1" (fun () ->
                migrate_lh ~from_k:fx.kernels.(0) ~to_k:fx.kernels.(1) lh_a));
         ignore
           (Proc.spawn fx.eng ~name:"m2" (fun () ->
                migrate_lh ~from_k:fx.kernels.(1) ~to_k:fx.kernels.(0) lh_b))));
  let ok = ref 0 in
  let clh = Kernel.create_logical_host fx.kernels.(0) ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process fx.kernels.(0) clh ~name:"client" (fun vp ->
         Proc.sleep fx.eng (ms 500.);
         (match
            Kernel.send fx.kernels.(0) ~src:(Vproc.pid vp) ~dst:pid_a
              (Message.make Message.Ping)
          with
         | Ok _ -> incr ok
         | Error _ -> ());
         match
           Kernel.send fx.kernels.(0) ~src:(Vproc.pid vp) ~dst:pid_b
             (Message.make Message.Ping)
         with
         | Ok _ -> incr ok
         | Error _ -> ()));
  Engine.run fx.eng ~until:(sec 30.);
  Alcotest.(check int) "both reachable after swap" 2 !ok;
  Alcotest.(check int) "a served once" 1 !served_a;
  Alcotest.(check int) "b served once" 1 !served_b;
  Alcotest.(check bool) "a on ws1" true
    (Kernel.find_lh fx.kernels.(1) (Logical_host.id lh_a) <> None);
  Alcotest.(check bool) "b on ws0" true
    (Kernel.find_lh fx.kernels.(0) (Logical_host.id lh_b) <> None)

let test_binding_stats_after_migration () =
  let fx = setup ~hosts:3 () in
  let server_lh, pid, _ = echo_server fx fx.kernels.(1) in
  let k0 = fx.kernels.(0) in
  let clh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k0 clh ~name:"client" (fun vp ->
         ignore (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping));
         (* Binding cached; migration announces the new binding. *)
         Proc.sleep fx.eng (ms 100.);
         migrate_lh ~from_k:fx.kernels.(1) ~to_k:fx.kernels.(2) server_lh;
         Proc.sleep fx.eng (ms 50.);
         (* The Here_is announcement should have rebound us without a
            Where_is query. *)
         let before = Kernel.count k0 Kernel.Where_is in
         ignore (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping));
         Alcotest.(check int) "no extra query after announce" before
           (Kernel.count k0 Kernel.Where_is)));
  Engine.run fx.eng ~until:(sec 30.)

(* {1 Memory and reservations} *)

let test_memory_accounting_with_reservation () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let free0 = Kernel.memory_free k in
  Alcotest.(check bool) "reserve ok" true
    (Kernel.reserve_lh k ~temp_lh:999 ~bytes:(256 * 1024));
  Alcotest.(check int) "reservation counted" (free0 - (256 * 1024))
    (Kernel.memory_free k);
  Kernel.cancel_reservation k ~temp_lh:999;
  Alcotest.(check int) "restored" free0 (Kernel.memory_free k)

let test_reservation_refused_when_broke () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  Alcotest.(check bool) "too big" false
    (Kernel.reserve_lh k ~temp_lh:998 ~bytes:(64 * 1024 * 1024))

let test_lh_occupies_memory () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let free0 = Kernel.memory_free k in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Background in
  let sp = Address_space.create ~code_bytes:(100 * 1024) ~data_bytes:0 ~active_bytes:0 () in
  Logical_host.add_space lh sp;
  Alcotest.(check int) "space charged" (free0 - (100 * 1024)) (Kernel.memory_free k);
  Kernel.destroy_logical_host k lh;
  Alcotest.(check int) "freed on destroy" free0 (Kernel.memory_free k)

(* {1 Groups: membership edge cases} *)

let test_leave_group_stops_delivery () =
  let fx = setup ~hosts:2 () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) in
  let group = Ids.pid 0x7FFF0005 1 in
  let hits = ref 0 in
  let lh = Kernel.create_logical_host k1 ~priority:Cpu.Foreground in
  let member =
    Kernel.spawn_process k1 lh ~name:"member" (fun vp ->
        let rec loop () =
          let d = Kernel.receive k1 vp in
          incr hits;
          Kernel.reply ~from:(Vproc.pid vp) k1 d (Message.make Message.Pong);
          loop ()
        in
        loop ())
  in
  Kernel.join_group k1 ~group member;
  let clh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k0 clh ~name:"querier" (fun vp ->
         let c =
           Kernel.send_group k0 ~src:(Vproc.pid vp) ~group (Message.make Message.Ping)
         in
         ignore (Kernel.collect_first k0 c ~timeout:(ms 200.));
         Kernel.leave_group k1 ~group member;
         let c2 =
           Kernel.send_group k0 ~src:(Vproc.pid vp) ~group (Message.make Message.Ping)
         in
         ignore (Kernel.collect_first k0 c2 ~timeout:(ms 200.))));
  Engine.run fx.eng ~until:(sec 5.);
  Alcotest.(check int) "only the pre-leave query delivered" 1 !hits

let test_late_group_reply_harmless () =
  (* A member that answers after the collector closed: the reply must be
     dropped without disturbing anything. *)
  let fx = setup ~hosts:2 () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) in
  let group = Ids.pid 0x7FFF0006 1 in
  let lh = Kernel.create_logical_host k1 ~priority:Cpu.Foreground in
  let member =
    Kernel.spawn_process k1 lh ~name:"slow-member" (fun vp ->
        let d = Kernel.receive k1 vp in
        Proc.sleep fx.eng (sec 1.);
        Kernel.reply ~from:(Vproc.pid vp) k1 d (Message.make Message.Pong))
  in
  Kernel.join_group k1 ~group member;
  let got = ref (Some ()) in
  let clh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k0 clh ~name:"querier" (fun vp ->
         let c =
           Kernel.send_group k0 ~src:(Vproc.pid vp) ~group (Message.make Message.Ping)
         in
         got := Option.map (fun _ -> ()) (Kernel.collect_first k0 c ~timeout:(ms 100.))));
  Engine.run fx.eng ~until:(sec 5.);
  Alcotest.(check bool) "timed out before slow reply" true (!got = None)

(* {1 Destroy / freeze interactions} *)

let test_destroy_frozen_logical_host () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Background in
  let ran_after = ref false in
  ignore
    (Kernel.spawn_process k lh ~name:"victim" (fun _ ->
         Proc.sleep fx.eng (ms 10.);
         Proc.sleep fx.eng (sec 100.);
         ran_after := true));
  ignore
    (Proc.spawn fx.eng ~name:"driver" (fun () ->
         Proc.sleep fx.eng (ms 50.);
         Kernel.freeze_lh k lh;
         Kernel.destroy_logical_host k lh));
  Engine.run fx.eng ~until:(sec 200.);
  Alcotest.(check bool) "victim never resumed" false !ran_after;
  Alcotest.(check bool) "gone" true (Kernel.find_lh k (Logical_host.id lh) = None)

(* {1 Counter registry} *)

(* The export names are the benchmark's and reports' contract: [stat]
   by name must agree with [count] by constructor, and a name that is
   not registered is an error, not a silent 0. *)
let test_counter_registry () =
  let names = List.map Kernel.counter_name Kernel.counters in
  Alcotest.(check (list string))
    "export names"
    [
      "sends"; "sends_failed"; "group_sends"; "retransmissions"; "where_is";
      "reply_pending"; "duplicates"; "forwarded"; "replies_discarded_frozen";
      "packets_rx"; "ks_pings"; "reservations_expired"; "reboots";
      "page_faults"; "page_fault_serves"; "xfer_chunks_hit";
      "xfer_chunks_miss"; "xfer_bytes_deduped"; "xfer_bytes_shipped";
      "xfer_bytes_saved"; "xfer_manifest_bytes"; "img_announced_chunks";
      "img_chunks_hit"; "img_chunks_miss";
    ]
    names;
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let fx = setup ~hosts:2 () in
  let _, pid, _ = echo_server fx fx.kernels.(1) in
  let k0 = fx.kernels.(0) in
  let clh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k0 clh ~name:"client" (fun vp ->
         for _ = 1 to 3 do
           ignore
             (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid
                (Message.make Message.Ping))
         done));
  Engine.run fx.eng ~until:(sec 10.);
  Alcotest.(check int) "sends counted" 3 (Kernel.count k0 Kernel.Sends);
  Array.iter
    (fun k ->
      List.iter
        (fun c ->
          let name = Kernel.counter_name c in
          Alcotest.(check int) name (Kernel.count k c) (Kernel.stat k name))
        Kernel.counters)
    fx.kernels;
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Kernel.stat: unknown counter nonsense") (fun () ->
      ignore (Kernel.stat k0 "nonsense"))

(* {1 Engine odds and ends} *)

let test_engine_max_steps () =
  let e = Engine.create () in
  let n = ref 0 in
  let rec chain () =
    incr n;
    ignore (Engine.schedule_after e (ms 1.) chain)
  in
  ignore (Engine.schedule_after e (ms 1.) chain);
  Engine.run e ~max_steps:10;
  Alcotest.(check int) "bounded" 10 !n

let test_self_kill_at_next_suspension () =
  let e = Engine.create () in
  let after = ref false in
  let p = ref None in
  let proc =
    Proc.spawn e ~name:"suicidal" (fun () ->
        (match !p with Some me -> Proc.kill me | None -> ());
        (* Still running: death lands at the next suspension point. *)
        Proc.sleep e (ms 1.);
        after := true)
  in
  p := Some proc;
  Engine.run e;
  Alcotest.(check bool) "did not resume" false !after;
  Alcotest.(check bool) "killed" true (Proc.status proc = Some Proc.Killed)

let () =
  Alcotest.run "v_os2"
    [
      ( "logical-host",
        [
          Alcotest.test_case "process indices" `Quick test_lh_process_indices;
          Alcotest.test_case "memory accounting" `Quick test_lh_memory_accounting;
          Alcotest.test_case "gate blocks while frozen" `Quick
            test_lh_gate_blocks_while_frozen;
          Alcotest.test_case "deferred op order" `Quick test_lh_deferred_op_order;
        ] );
      ( "process-creation",
        [
          Alcotest.test_case "exists before running" `Quick
            test_create_then_start_process;
        ] );
      ( "cost-accounting",
        [
          Alcotest.test_case "group lookup surcharge" `Quick
            test_group_lookup_surcharge;
          Alcotest.test_case "ablated overheads" `Quick test_zero_overhead_params;
        ] );
      ( "hard-interleavings",
        [
          Alcotest.test_case "multi-hop chain" `Quick
            test_multi_hop_migration_chain;
          Alcotest.test_case "simultaneous swap" `Quick test_simultaneous_swap;
          Alcotest.test_case "announce avoids re-query" `Quick
            test_binding_stats_after_migration;
        ] );
      ( "memory",
        [
          Alcotest.test_case "reservation accounting" `Quick
            test_memory_accounting_with_reservation;
          Alcotest.test_case "reservation refused when broke" `Quick
            test_reservation_refused_when_broke;
          Alcotest.test_case "logical host occupies memory" `Quick
            test_lh_occupies_memory;
        ] );
      ( "groups-extra",
        [
          Alcotest.test_case "leave group" `Quick test_leave_group_stops_delivery;
          Alcotest.test_case "late reply harmless" `Quick
            test_late_group_reply_harmless;
        ] );
      ( "destroy-freeze",
        [
          Alcotest.test_case "destroy frozen host" `Quick
            test_destroy_frozen_logical_host;
        ] );
      ("counters", [ Alcotest.test_case "registry" `Quick test_counter_registry ]);
      ( "engine-extra",
        [
          Alcotest.test_case "max steps" `Quick test_engine_max_steps;
          Alcotest.test_case "self-kill lands at suspension" `Quick
            test_self_kill_at_next_suspension;
        ] );
    ]
