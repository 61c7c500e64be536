(* Tests for the V kernel substrate: IPC (local, remote, loss recovery,
   duplicate suppression), process groups, the binding cache, CPU
   scheduling, address-space dirty tracking, and kernel-level
   freeze/extract/install — the mechanics migration is built from. *)

let ms = Time.of_ms

type fixture = {
  eng : Engine.t;
  net : Packet.t Ethernet.t;
  kernels : Kernel.t array;
  tracer : Tracer.t; (* shared by the kernels; disabled *)
}

let setup ?(hosts = 2) ?(loss = 0.) ?(params = Os_params.default) () =
  let eng = Engine.create () in
  let rng = Rng.create 42 in
  let config = { Ethernet.default_config with loss_probability = loss } in
  let net = Ethernet.create ~config eng (Rng.split rng) in
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
  { eng; net; kernels; tracer }

(* A one-process server that answers [Ping] with [Pong] and counts the
   requests it actually received (for exactly-once checks). *)
let echo_server ?(delay = Time.zero) fx k =
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  let served = ref 0 in
  let vp =
    Kernel.spawn_process k lh (fun vp ->
        let rec loop () =
          let d = Kernel.receive k vp in
          incr served;
          if Time.(delay > Time.zero) then Proc.sleep fx.eng delay;
          Kernel.reply k d (Message.make Message.Pong);
          loop ()
        in
        loop ())
  in
  (lh, Vproc.pid vp, served)

let client fx k ~dst msg =
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  let result = ref None in
  let finished_at = ref Time.zero in
  ignore
    (Kernel.spawn_process k lh (fun vp ->
         result := Some (Kernel.send k ~src:(Vproc.pid vp) ~dst msg);
         finished_at := Engine.now fx.eng));
  (result, finished_at)

let check_pong what = function
  | Some (Ok m) when m.Message.body = Message.Pong -> ()
  | Some (Ok _) -> Alcotest.failf "%s: wrong reply body" what
  | Some (Error e) ->
      Alcotest.failf "%s: send failed: %s" what
        (Format.asprintf "%a" Kernel.pp_send_error e)
  | None -> Alcotest.failf "%s: send never completed" what

(* {1 IPC basics} *)

let test_local_round_trip () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let _, pid, served = echo_server fx k in
  let result, finished = client fx k ~dst:pid (Message.make Message.Ping) in
  Engine.run fx.eng ~until:(Time.of_sec 1.);
  check_pong "local" !result;
  Alcotest.(check int) "served once" 1 !served;
  (* Local round trip is a few kernel ops: well under 5 ms. *)
  if Time.(!finished > ms 5.) then
    Alcotest.failf "local round trip too slow: %s" (Time.to_string !finished)

let test_remote_round_trip () =
  let fx = setup () in
  let _, pid, served = echo_server fx fx.kernels.(1) in
  let result, finished =
    client fx fx.kernels.(0) ~dst:pid (Message.make Message.Ping)
  in
  Engine.run fx.eng ~until:(Time.of_sec 1.);
  check_pong "remote" !result;
  Alcotest.(check int) "served once" 1 !served;
  (* Cold path includes a Where_is broadcast; still well under 20 ms. *)
  if Time.(!finished > ms 20.) then
    Alcotest.failf "remote round trip too slow: %s" (Time.to_string !finished)

let test_remote_second_send_uses_cache () =
  let fx = setup () in
  let _, pid, _ = echo_server fx fx.kernels.(1) in
  let k0 = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  let first = ref Time.zero and second = ref Time.zero in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         let t0 = Engine.now fx.eng in
         ignore (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping));
         first := Time.sub (Engine.now fx.eng) t0;
         let t1 = Engine.now fx.eng in
         ignore (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping));
         second := Time.sub (Engine.now fx.eng) t1));
  Engine.run fx.eng ~until:(Time.of_sec 1.);
  Alcotest.(check int) "one where_is total" 1 (Kernel.count k0 Kernel.Where_is);
  if Time.(!second >= !first) then
    Alcotest.failf "cached send (%s) not faster than cold send (%s)"
      (Time.to_string !second) (Time.to_string !first)

let test_send_to_nonexistent_times_out () =
  let fx = setup () in
  let ghost = Ids.pid 999 17 in
  let result, finished =
    client fx fx.kernels.(0) ~dst:ghost (Message.make Message.Ping)
  in
  Engine.run fx.eng ~until:(Time.of_sec 20.);
  (match !result with
  | Some (Error Kernel.No_response) -> ()
  | _ -> Alcotest.fail "expected No_response");
  (* Abandonment at the configured give-up horizon (5 s default). *)
  let waited = Time.to_sec !finished in
  if waited < 4.9 || waited > 6.0 then
    Alcotest.failf "gave up after %.2fs, expected ~5s" waited

let test_send_to_dead_process_on_live_host_fails_fast () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  let missing = Ids.pid (Logical_host.id lh) 99 in
  let result, finished = client fx k ~dst:missing (Message.make Message.Ping) in
  Engine.run fx.eng ~until:(Time.of_sec 10.);
  (match !result with
  | Some (Error Kernel.No_response) -> ()
  | _ -> Alcotest.fail "expected No_response");
  if Time.(!finished > ms 10.) then
    Alcotest.fail "resident-host missing process should fail fast"

let test_loss_recovery_exactly_once () =
  (* 30% frame loss: sends must still complete, and duplicate suppression
     must keep each request's delivery to the server at exactly one. *)
  let fx = setup ~loss:0.3 () in
  let _, pid, served = echo_server fx fx.kernels.(1) in
  let k0 = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  let ok = ref 0 in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         for _ = 1 to 20 do
           match Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping) with
           | Ok _ -> incr ok
           | Error _ -> ()
         done));
  Engine.run fx.eng ~until:(Time.of_sec 120.);
  Alcotest.(check int) "all sends complete" 20 !ok;
  Alcotest.(check int) "exactly-once delivery" 20 !served;
  if Kernel.count k0 Kernel.Retransmissions = 0 then
    Alcotest.fail "expected retransmissions under loss"

let test_slow_server_reply_pending_prevents_abort () =
  (* Server takes 12s to answer — far beyond the 5s give-up. The sender
     kernel's retransmissions elicit reply-pendings that keep resetting
     the abandonment clock (Section 3.1.3). *)
  let fx = setup () in
  let _, pid, _ = echo_server ~delay:(Time.of_sec 12.) fx fx.kernels.(1) in
  let result, finished =
    client fx fx.kernels.(0) ~dst:pid (Message.make Message.Ping)
  in
  Engine.run fx.eng ~until:(Time.of_sec 60.);
  check_pong "slow server" !result;
  let waited = Time.to_sec !finished in
  if waited < 12.0 then Alcotest.failf "finished too early: %.2fs" waited;
  if Kernel.count fx.kernels.(1) Kernel.Reply_pending = 0 then
    Alcotest.fail "expected reply-pending packets"

let test_lost_reply_resent_from_cache () =
  (* Force the reply to be lost once: the duplicate request must re-elicit
     the retained reply rather than re-executing the server. *)
  let fx = setup () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) in
  let _, pid, served = echo_server fx k1 in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  let result = ref None in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         (* Warm the binding cache first. *)
         ignore (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping));
         (* Now lose everything briefly right as the request goes out;
            restore the wire before the retransmission. *)
         Ethernet.set_loss fx.net 1.0;
         ignore
           (Engine.schedule_after fx.eng (ms 150.) (fun () ->
                Ethernet.set_loss fx.net 0.));
         result := Some (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping))));
  Engine.run fx.eng ~until:(Time.of_sec 30.);
  check_pong "after loss" !result;
  Alcotest.(check int) "server not re-executed beyond two requests" 2 !served

(* {1 Reply retention}

   A bare station injects raw request frames, standing in for a remote
   kernel whose retransmissions the test times exactly. Replies come
   back to it through the binding the server's kernel learns from the
   frames. *)

let raw_requester fx ~server_station =
  let station = Addr.of_int 99 in
  let replies = ref 0 in
  ignore
    (Ethernet.attach fx.net station (fun f ->
         match f.Frame.payload with Packet.Reply _ -> incr replies | _ -> ()));
  let src = Ids.pid 5000 Ids.first_user_index in
  let request ~at ~txn ~dst =
    ignore
      (Engine.schedule fx.eng ~at (fun () ->
           let pkt =
             Packet.Request { txn; src; dst; msg = Message.make Message.Ping }
           in
           Ethernet.send fx.net
             (Frame.unicast ~src:station ~dst:server_station
                ~bytes:(Packet.bytes pkt) pkt)))
  in
  (request, replies)

let test_retained_reply_expires () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let _, pid, served = echo_server fx k in
  let request, replies = raw_requester fx ~server_station:(Kernel.station k) in
  let txn = 1_000_000 in
  let sec = Time.of_sec in
  request ~at:(sec 0.1) ~txn ~dst:pid;
  (* Duplicates within the 2 s TTL are answered from the retained reply,
     and each one refreshes the retention... *)
  request ~at:(sec 1.5) ~txn ~dst:pid;
  request ~at:(sec 3.0) ~txn ~dst:pid;
  Engine.run fx.eng ~until:(sec 4.);
  Alcotest.(check int) "duplicates within the TTL not re-executed" 1 !served;
  Alcotest.(check int) "each duplicate answered" 3 !replies;
  (* ...but one arriving after the TTL is a new request. *)
  request ~at:(sec 5.5) ~txn ~dst:pid;
  Engine.run fx.eng ~until:(sec 6.);
  Alcotest.(check int) "after the TTL, executed again" 2 !served;
  Alcotest.(check int) "and answered" 4 !replies

let test_reply_table_bounded () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let lh, pid, served = echo_server fx k in
  let request, replies = raw_requester fx ~server_station:(Kernel.station k) in
  let n = 10_000 in
  for i = 0 to n - 1 do
    request ~at:(Time.of_us (1000 * (i + 1))) ~txn:(1_000_000 + i) ~dst:pid
  done;
  Engine.run fx.eng ~until:(Time.of_sec 12.);
  Alcotest.(check int) "served" n !served;
  Alcotest.(check int) "answered" n !replies;
  (* One request per ms and a 2 s TTL: about 2000 replies are live at
     any time, and the table sweeps each time it doubles. *)
  let held = Logical_host.inbound_size lh in
  if held > 4100 then
    Alcotest.failf "%d inbound entries held for ~2000 live replies" held

(* {1 Group communication} *)

let test_group_send_collect_all () =
  let fx = setup ~hosts:3 () in
  let group = Ids.program_manager_group in
  (* A member on every host answers with its own id. *)
  Array.iter
    (fun k ->
      let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
      let vp =
        Kernel.spawn_process k lh (fun vp ->
            let rec loop () =
              let d = Kernel.receive k vp in
              Kernel.reply ~from:(Vproc.pid vp) k d (Message.make Message.Pong);
              loop ()
            in
            loop ())
      in
      Kernel.join_group k ~group vp)
    fx.kernels;
  let k0 = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  let replies = ref [] in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         let c =
           Kernel.send_group k0 ~src:(Vproc.pid vp) ~group
             (Message.make Message.Ping)
         in
         replies := Kernel.collect_within k0 c ~window:(ms 100.)));
  Engine.run fx.eng ~until:(Time.of_sec 1.);
  Alcotest.(check int) "three responders" 3 (List.length !replies);
  let senders = List.map fst !replies in
  let uniq = List.sort_uniq Ids.pid_compare senders in
  Alcotest.(check int) "distinct members" 3 (List.length uniq)

let test_group_collect_first_picks_earliest () =
  let fx = setup ~hosts:3 () in
  let group = Ids.program_manager_group in
  (* Hosts answer after different think times; the first responder must
     win — this is the paper's host-selection policy. *)
  let delays = [| ms 30.; ms 5.; ms 60. |] in
  Array.iteri
    (fun i k ->
      let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
      let vp =
        Kernel.spawn_process k lh (fun vp ->
            let rec loop () =
              let d = Kernel.receive k vp in
              Proc.sleep fx.eng delays.(i);
              Kernel.reply ~from:(Vproc.pid vp) k d
                (Message.make (Message.Text (Kernel.host_name k)));
              loop ()
            in
            loop ())
      in
      Kernel.join_group k ~group vp)
    fx.kernels;
  let k0 = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  let winner = ref None in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         let c =
           Kernel.send_group k0 ~src:(Vproc.pid vp) ~group
             (Message.make Message.Ping)
         in
         match Kernel.collect_first k0 c ~timeout:(Time.of_sec 1.) with
         | Some (_, m) -> winner := Some m.Message.body
         | None -> ()));
  Engine.run fx.eng ~until:(Time.of_sec 2.);
  match !winner with
  | Some (Message.Text name) -> Alcotest.(check string) "fastest host" "ws1" name
  | _ -> Alcotest.fail "no winner"

let test_group_collect_first_timeout () =
  let fx = setup () in
  let k0 = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  let got = ref (Some ()) in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         let c =
           Kernel.send_group k0 ~src:(Vproc.pid vp)
             ~group:(Ids.pid 0x7FFF0001 1)
             (Message.make Message.Ping)
         in
         got :=
           Option.map
             (fun _ -> ())
             (Kernel.collect_first k0 c ~timeout:(ms 50.))));
  Engine.run fx.eng ~until:(Time.of_sec 1.);
  Alcotest.(check bool) "no members, no reply" true (!got = None)

(* {1 Kernel server} *)

let test_kernel_server_ping_via_local_group () =
  let fx = setup () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) in
  (* Address ws1's kernel server through the local-group id of ws1's own
     host logical host — from ws0, across the wire. *)
  let target = Ids.kernel_server_of (Logical_host.id (Kernel.host_lh k1)) in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  let answer = ref None in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         answer := Some (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:target (Message.make Kernel.Ks_ping))));
  Engine.run fx.eng ~until:(Time.of_sec 1.);
  match !answer with
  | Some (Ok m) when m.Message.body = Kernel.Ks_pong -> ()
  | _ -> Alcotest.fail "expected Ks_pong"

let test_idle_kernel_memory_and_guests () =
  let fx = setup () in
  let k1 = fx.kernels.(1) in
  Engine.run fx.eng ~until:(Time.of_sec 1.);
  Alcotest.(check int) "no guests" 0 (Kernel.guest_count k1);
  Alcotest.(check int) "full memory" (2 * 1024 * 1024) (Kernel.memory_free k1)

let test_remote_destroy_via_kernel_server () =
  let fx = setup () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) in
  let victim_lh, _, _ = echo_server fx k1 in
  let target = Ids.kernel_server_of (Logical_host.id (Kernel.host_lh k1)) in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  let answer = ref None in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         answer :=
           Some
             (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:target
                (Message.make (Kernel.Ks_destroy_lh (Logical_host.id victim_lh))))));
  Engine.run fx.eng ~until:(Time.of_sec 1.);
  (match !answer with
  | Some (Ok m) when m.Message.body = Kernel.Ks_ok -> ()
  | _ -> Alcotest.fail "expected Ks_ok");
  Alcotest.(check bool) "gone" true
    (Kernel.find_lh k1 (Logical_host.id victim_lh) = None)

(* {1 Freezing} *)

let test_freeze_defers_and_unfreeze_delivers () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let server_lh, pid, served = echo_server fx k in
  (* Freeze at 10ms, unfreeze at 200ms; a request sent at 50ms must be
     answered only after the thaw. *)
  ignore
    (Proc.spawn fx.eng (fun () ->
         Proc.sleep fx.eng (ms 10.);
         Kernel.freeze_lh k server_lh;
         Proc.sleep fx.eng (ms 190.);
         Kernel.unfreeze_lh k server_lh));
  let result = ref None in
  let finished = ref Time.zero in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k lh (fun vp ->
         Proc.sleep fx.eng (ms 50.);
         result := Some (Kernel.send k ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping));
         finished := Engine.now fx.eng));
  Engine.run fx.eng ~until:(Time.of_sec 2.);
  check_pong "deferred" !result;
  Alcotest.(check int) "served once" 1 !served;
  if Time.(!finished < ms 200.) then
    Alcotest.failf "answered while frozen (at %s)" (Time.to_string !finished)

let test_freeze_remote_sender_gets_reply_pending () =
  let fx = setup () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) in
  let server_lh, pid, _ = echo_server fx k1 in
  ignore
    (Proc.spawn fx.eng (fun () ->
         Proc.sleep fx.eng (ms 10.);
         Kernel.freeze_lh k1 server_lh;
         Proc.sleep fx.eng (Time.of_sec 8.);
         (* longer than give-up: only reply-pendings keep the sender alive *)
         Kernel.unfreeze_lh k1 server_lh));
  let result = ref None in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         Proc.sleep fx.eng (ms 50.);
         result := Some (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping))));
  Engine.run fx.eng ~until:(Time.of_sec 30.);
  check_pong "survived long freeze" !result;
  if Kernel.count k1 Kernel.Reply_pending = 0 then
    Alcotest.fail "expected reply-pending during freeze"

let test_freeze_stops_cpu_consumption () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Background in
  let cpu_done = ref Time.zero in
  ignore
    (Kernel.spawn_process k lh (fun _vp ->
         Cpu.compute ~owner:(Logical_host.id lh) ~gate:(Logical_host.gate lh)
           (Kernel.cpu k) ~priority:Cpu.Background (ms 100.);
         cpu_done := Engine.now fx.eng));
  ignore
    (Proc.spawn fx.eng (fun () ->
         Proc.sleep fx.eng (ms 20.);
         Kernel.freeze_lh k lh;
         Proc.sleep fx.eng (ms 500.);
         Kernel.unfreeze_lh k lh));
  Engine.run fx.eng ~until:(Time.of_sec 2.);
  (* 100ms of work interrupted by a 500ms freeze at 20ms: finishes near
     620ms, certainly not before the thaw. *)
  if Time.(!cpu_done < ms 520.) then
    Alcotest.failf "computed through the freeze (done at %s)"
      (Time.to_string !cpu_done)

(* {1 Kernel-level migration: extract / install} *)

let migrate_lh fx ~from_k ~to_k lh =
  Kernel.freeze_lh from_k lh;
  let st = Kernel.extract_lh from_k lh in
  let lh' = Kernel.install_lh to_k st in
  Kernel.unfreeze_lh to_k lh';
  Kernel.announce_lh to_k (Logical_host.id lh');
  ignore fx

let test_migrate_idle_server_then_reach_it () =
  let fx = setup ~hosts:3 () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) and k2 = fx.kernels.(2) in
  let server_lh, pid, served = echo_server fx k1 in
  ignore
    (Proc.spawn fx.eng (fun () ->
         Proc.sleep fx.eng (ms 100.);
         migrate_lh fx ~from_k:k1 ~to_k:k2 server_lh));
  let result = ref None in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         (* Talk to it before the move (caches the old binding), then
            after: the stale cache entry must be invalidated and rebound. *)
         ignore (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping));
         Proc.sleep fx.eng (ms 300.);
         result := Some (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping))));
  Engine.run fx.eng ~until:(Time.of_sec 10.);
  check_pong "after migration" !result;
  Alcotest.(check int) "both served" 2 !served;
  Alcotest.(check bool) "resident at ws2" true
    (Kernel.find_lh k2 (Logical_host.id server_lh) <> None);
  Alcotest.(check bool) "gone from ws1" true
    (Kernel.find_lh k1 (Logical_host.id server_lh) = None)

let test_migrate_while_request_in_service () =
  (* The hard case: the server received a request, is mid-service, and the
     logical host moves before it replies. The reply must still reach the
     blocked client, from the new host. *)
  let fx = setup ~hosts:3 () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) and k2 = fx.kernels.(2) in
  let server_lh, pid, served = echo_server ~delay:(ms 400.) fx k1 in
  ignore
    (Proc.spawn fx.eng (fun () ->
         (* Freeze lands inside the server's 400ms service window. *)
         Proc.sleep fx.eng (ms 100.);
         migrate_lh fx ~from_k:k1 ~to_k:k2 server_lh));
  let result = ref None in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         result := Some (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping))));
  Engine.run fx.eng ~until:(Time.of_sec 30.);
  check_pong "reply from new host" !result;
  Alcotest.(check int) "serviced exactly once" 1 !served

let test_migrate_with_queued_request () =
  (* A request queued (delivered but not yet received) at migration time
     is discarded with the old copy; the sender's retransmission must
     deliver it at the new host (Section 3.1.3). *)
  let fx = setup ~hosts:3 () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) and k2 = fx.kernels.(2) in
  (* Server sleeps 300ms before its first receive, so an early request
     waits in the queue. *)
  let server_lh = Kernel.create_logical_host k1 ~priority:Cpu.Foreground in
  let served = ref 0 in
  let server_vp =
    Kernel.spawn_process k1 server_lh (fun vp ->
        Proc.sleep fx.eng (ms 300.);
        let rec loop () =
          (* After migration this kernel handle is stale for receives, so
             the loop must use the kernel the host now lives on. *)
          let k = if Kernel.find_lh k1 (Vproc.pid vp).Ids.lh <> None then k1 else k2 in
          let d = Kernel.receive k vp in
          incr served;
          Kernel.reply k d (Message.make Message.Pong);
          loop ()
        in
        loop ())
  in
  let pid = Vproc.pid server_vp in
  ignore
    (Proc.spawn fx.eng (fun () ->
         Proc.sleep fx.eng (ms 100.);
         migrate_lh fx ~from_k:k1 ~to_k:k2 server_lh));
  let result = ref None in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         Proc.sleep fx.eng (ms 20.);
         result := Some (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping))));
  Engine.run fx.eng ~until:(Time.of_sec 30.);
  check_pong "queued request redelivered" !result;
  Alcotest.(check int) "exactly once" 1 !served

let test_migrating_client_keeps_outstanding_send () =
  (* The migrating logical host is the CLIENT: its outstanding send (the
     kernel state of Section 3.1.3) moves with it, keeps retransmitting
     from the new host, and the reply is collected there. *)
  let fx = setup ~hosts:3 () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) and k2 = fx.kernels.(2) in
  let _, pid, served = echo_server ~delay:(ms 500.) fx k0 in
  let client_lh = Kernel.create_logical_host k1 ~priority:Cpu.Background in
  let result = ref None in
  ignore
    (Kernel.spawn_process k1 client_lh (fun vp ->
         result := Some (Kernel.send k1 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping))));
  ignore
    (Proc.spawn fx.eng (fun () ->
         Proc.sleep fx.eng (ms 100.);
         migrate_lh fx ~from_k:k1 ~to_k:k2 client_lh));
  Engine.run fx.eng ~until:(Time.of_sec 30.);
  check_pong "reply reached migrated client" !result;
  Alcotest.(check int) "server ran once" 1 !served

let test_destroy_fails_local_senders () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let server_lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  (* A server that never receives. *)
  let vp =
    Kernel.spawn_process k server_lh (fun _ ->
        Proc.sleep fx.eng (Time.of_sec 3600.))
  in
  let result = ref None in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k lh (fun cvp ->
         result :=
           Some (Kernel.send k ~src:(Vproc.pid cvp) ~dst:(Vproc.pid vp) (Message.make Message.Ping))));
  ignore
    (Engine.schedule fx.eng ~at:(ms 100.) (fun () ->
         Kernel.destroy_logical_host k server_lh));
  Engine.run fx.eng ~until:(Time.of_sec 10.);
  match !result with
  | Some (Error Kernel.No_response) -> ()
  | _ -> Alcotest.fail "local sender must fail when target host destroyed"

let test_shutdown_makes_sends_fail () =
  let fx = setup () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) in
  let _, pid, _ = echo_server fx k1 in
  ignore (Engine.schedule fx.eng ~at:(ms 10.) (fun () -> Kernel.shutdown k1));
  let result = ref None in
  let lh = Kernel.create_logical_host k0 ~priority:Cpu.Foreground in
  ignore
    (Kernel.spawn_process k0 lh (fun vp ->
         Proc.sleep fx.eng (ms 50.);
         result := Some (Kernel.send k0 ~src:(Vproc.pid vp) ~dst:pid (Message.make Message.Ping))));
  Engine.run fx.eng ~until:(Time.of_sec 30.);
  match !result with
  | Some (Error Kernel.No_response) -> ()
  | _ -> Alcotest.fail "send to crashed host must fail"

(* A down kernel holds no guests: installing into it raises, and the
   reboot comes back with the host logical host alone. *)
let test_down_kernel_refuses_install () =
  let fx = setup () in
  let k0 = fx.kernels.(0) and k1 = fx.kernels.(1) in
  let guest = Kernel.create_logical_host k0 ~priority:Cpu.Background in
  Kernel.freeze_lh k0 guest;
  let state = Kernel.extract_lh k0 guest in
  Kernel.shutdown k1;
  (match Kernel.install_lh k1 state with
  | _ -> Alcotest.fail "install into a down kernel succeeded"
  | exception Invalid_argument _ -> ());
  Kernel.reboot k1;
  Alcotest.(check (list int))
    "only the host logical host is resident"
    [ Logical_host.id (Kernel.host_lh k1) ]
    (List.map Logical_host.id (Kernel.logical_hosts k1))

(* {1 CPU scheduling} *)

let test_cpu_foreground_priority () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~quantum:(ms 10.) in
  let fg_done = ref Time.zero and bg_done = ref Time.zero in
  ignore
    (Proc.spawn e (fun () ->
         Cpu.compute cpu ~priority:Cpu.Background (ms 100.);
         bg_done := Engine.now e));
  ignore
    (Proc.spawn e (fun () ->
         Cpu.compute cpu ~priority:Cpu.Foreground (ms 100.);
         fg_done := Engine.now e));
  Engine.run e;
  if Time.(!fg_done >= !bg_done) then
    Alcotest.fail "foreground must finish before background";
  (* Both done: 200ms of demand on one CPU. *)
  Alcotest.(check int) "total makespan" 200_000 (Time.to_us (Time.max !fg_done !bg_done))

let test_cpu_round_robin_fair () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~quantum:(ms 10.) in
  let d1 = ref Time.zero and d2 = ref Time.zero in
  ignore
    (Proc.spawn e (fun () ->
         Cpu.compute cpu ~priority:Cpu.Background (ms 50.);
         d1 := Engine.now e));
  ignore
    (Proc.spawn e (fun () ->
         Cpu.compute cpu ~priority:Cpu.Background (ms 50.);
         d2 := Engine.now e));
  Engine.run e;
  (* Interleaved: both finish within one quantum of 100ms. *)
  let worst = Time.max !d1 !d2 and best = Time.min !d1 !d2 in
  Alcotest.(check int) "makespan" 100_000 (Time.to_us worst);
  if Time.to_us best < 90_000 then
    Alcotest.fail "round robin should keep finish times close"

let test_cpu_busy_fraction () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~quantum:(ms 10.) in
  ignore
    (Proc.spawn e (fun () ->
         Cpu.compute cpu ~priority:Cpu.Foreground (ms 30.)));
  Engine.run e ~until:(ms 60.);
  let f = Cpu.busy_fraction cpu in
  if f < 0.45 || f > 0.55 then Alcotest.failf "busy fraction %.3f, expected ~0.5" f

(* A lone program in [Program.run_spec]'s shape: one quantum per call,
   hooks built once, and a between-quanta step that commits the next
   quantum while [quanta] remain. Returns the slice count and the
   program's process. *)
let lone_program ?(on_slice = ignore) k lh ~quanta =
  let owner = Logical_host.id lh and gate = Logical_host.gate lh in
  let must_release () = Logical_host.frozen lh in
  let left = ref quanta and slices = ref 0 in
  let on_slice served =
    on_slice served;
    incr slices
  in
  let next _ =
    if !left > 1 && not (Logical_host.frozen lh) then begin
      decr left;
      Os_params.cpu_quantum
    end
    else Time.zero
  in
  let vp =
    Kernel.spawn_process k lh (fun _ ->
        while !left > 0 do
          gate ();
          Cpu.compute_sliced ~owner ~gate ~must_release (Kernel.cpu k)
            ~priority:(Logical_host.priority lh) Os_params.cpu_quantum
            ~on_slice ~next;
          decr left
        done)
  in
  (slices, vp)

(* Allocation pin: a lone program's quanta, page dirtying per slice.
   The slice timer chains them without resuming the process, so a
   quantum allocates nothing; a process switch per quantum (its
   suspension, continuation and wake-up closures) costs ~21 words, and
   boxed options, per-slice closures, float refs or a boxed generator
   state several words each. *)
let test_cpu_quantum_allocation () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Background in
  let space =
    Address_space.create ~code_bytes:0 ~data_bytes:0 ~active_bytes:65_536 ()
  in
  let model =
    Dirty_model.create
      { Dirty_model.hot_kb = 16.; hot_write_kb_per_sec = 200.; cold_kb_per_sec = 40. }
      space
  in
  let rng = Rng.create 7 in
  let quanta = 3_000 and warm = 500 in
  let slices, _ =
    lone_program k lh ~quanta ~on_slice:(fun served ->
        Dirty_model.on_cpu model rng served)
  in
  Engine.run fx.eng ~until:(Time.mul Os_params.cpu_quantum warm);
  let before = Gc.minor_words () and s0 = !slices in
  Engine.run fx.eng ~until:(Time.mul Os_params.cpu_quantum (quanta - 10));
  let per_slice =
    (Gc.minor_words () -. before) /. float_of_int (!slices - s0)
  in
  Engine.run fx.eng;
  Alcotest.(check int) "every quantum ran" quanta !slices;
  if per_slice > 1. then
    Alcotest.failf "%.2f minor words per slice (bound 1)" per_slice

(* Killing a lone program mid-quantum frees the CPU at that instant;
   its in-flight slice timer fires later as a no-op. *)
let test_cpu_kill_lone_program () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let cpu = Kernel.cpu k in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Background in
  let slices, vp = lone_program k lh ~quanta:100 in
  let at_kill = ref (-1) and other_done = ref Time.zero in
  ignore
    (Proc.spawn fx.eng (fun () ->
         Proc.sleep fx.eng (ms 55.);
         Vproc.kill vp;
         at_kill := Cpu.queue_length cpu;
         Cpu.compute cpu ~priority:Cpu.Background (ms 10.);
         other_done := Engine.now fx.eng));
  Engine.run fx.eng;
  Alcotest.(check int) "queue empty at the kill" 0 !at_kill;
  Alcotest.(check int) "slices before the kill" 5 !slices;
  Alcotest.(check int) "CPU free at once: other work done at 65 ms" 65_000
    (Time.to_us !other_done)

(* A waiter arriving while a lone program chains its quanta gets the
   CPU at the next quantum boundary, whether it preempts (foreground)
   or round-robins (equal priority). *)
let test_cpu_waiter_mid_run priority () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let cpu = Kernel.cpu k in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Background in
  let slices, _ = lone_program k lh ~quanta:20 in
  let started = ref (-1) and finished = ref Time.zero in
  ignore
    (Proc.spawn fx.eng (fun () ->
         Proc.sleep fx.eng (ms 25.);
         Cpu.compute cpu ~priority (ms 10.) ~owner:99
           ~gate:(fun () -> started := !slices);
         finished := Engine.now fx.eng));
  Engine.run fx.eng;
  Alcotest.(check int) "program slices before the waiter ran" 3 !started;
  Alcotest.(check int) "waiter done one quantum after the boundary" 40_000
    (Time.to_us !finished);
  Alcotest.(check int) "every program quantum ran" 20 !slices;
  Alcotest.(check int) "busy throughout" 210_000
    (Time.to_us (Engine.now fx.eng))

(* Freezing a lone program mid-quantum: its in-flight quantum ends, and
   that quantum's [Slice] is traced before [Lh_frozen]; no slice is
   traced while frozen. *)
let test_cpu_freeze_mid_run () =
  let fx = setup ~hosts:1 () in
  let k = fx.kernels.(0) in
  let tracer = fx.tracer in
  Tracer.set_enabled tracer true;
  let lh = Kernel.create_logical_host k ~priority:Cpu.Background in
  let id = Logical_host.id lh in
  let _slices, _ = lone_program k lh ~quanta:10 in
  let events = ref [] in
  Tracer.on_event tracer (fun r ->
      match r.Tracer.ev with
      | Cpu.Slice { owner; _ } when owner = id ->
          events := (Time.to_us r.Tracer.at, "slice") :: !events
      | Logical_host.Lh_frozen { lh; _ } when lh = id ->
          events := (Time.to_us r.Tracer.at, "frozen") :: !events
      | Logical_host.Lh_unfrozen { lh; _ } when lh = id ->
          events := (Time.to_us r.Tracer.at, "unfrozen") :: !events
      | _ -> ());
  ignore
    (Proc.spawn fx.eng (fun () ->
         Proc.sleep fx.eng (ms 25.);
         Kernel.freeze_lh k lh;
         Proc.sleep fx.eng (ms 100.);
         Kernel.unfreeze_lh k lh));
  Engine.run fx.eng;
  let events = List.rev !events in
  Alcotest.(check (list (pair int string)))
    "slice, then frozen, then nothing until the thaw"
    [
      (10_000, "slice"); (20_000, "slice"); (30_000, "slice");
      (30_000, "frozen"); (130_000, "unfrozen"); (140_000, "slice");
    ]
    (List.filteri (fun i _ -> i < 6) events);
  Alcotest.(check int) "all ten slices" 10
    (List.length (List.filter (fun (_, e) -> e = "slice") events))

(* {1 Address spaces} *)

let test_space_geometry () =
  let sp =
    Address_space.create ~code_bytes:100_000 ~data_bytes:25_000
      ~active_bytes:50_000 ()
  in
  Alcotest.(check int) "code pages" 98 (Address_space.segment_pages sp Address_space.Code);
  Alcotest.(check int) "data pages" 25 (Address_space.segment_pages sp Address_space.Initialized_data);
  Alcotest.(check int) "active pages" 49 (Address_space.segment_pages sp Address_space.Active_data);
  Alcotest.(check int) "total" 172 (Address_space.pages sp);
  Alcotest.(check int) "bytes" (172 * 1024) (Address_space.bytes sp)

let test_space_dirty_tracking () =
  let sp =
    Address_space.create ~code_bytes:0 ~data_bytes:0 ~active_bytes:10_240 ()
  in
  Address_space.touch sp 3;
  Address_space.touch sp 3;
  Address_space.touch sp 7;
  Alcotest.(check int) "dirty count" 2 (Address_space.dirty_count sp);
  Alcotest.(check (list int)) "snapshot" [ 3; 7 ] (Address_space.snapshot_dirty sp);
  Alcotest.(check bool) "is_dirty" true (Address_space.is_dirty sp 3);
  Alcotest.(check int) "clear returns" 2 (Address_space.clear_dirty sp);
  Alcotest.(check int) "clean after" 0 (Address_space.dirty_count sp)

let test_space_fill_all () =
  let sp =
    Address_space.create ~code_bytes:2048 ~data_bytes:0 ~active_bytes:2048 ()
  in
  Address_space.fill_all_dirty sp;
  Alcotest.(check int) "all dirty" 4 (Address_space.dirty_count sp)

let prop_space_dirty_consistent =
  QCheck.Test.make ~name:"dirty_count equals snapshot length" ~count:100
    QCheck.(list (int_bound 63))
    (fun touches ->
      let sp =
        Address_space.create ~code_bytes:0 ~data_bytes:0 ~active_bytes:(64 * 1024) ()
      in
      List.iter (Address_space.touch sp) touches;
      Address_space.dirty_count sp
      = List.length (Address_space.snapshot_dirty sp)
      && Address_space.dirty_count sp
         = List.length (List.sort_uniq Int.compare touches))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "v_os"
    [
      ( "ipc",
        [
          Alcotest.test_case "local round trip" `Quick test_local_round_trip;
          Alcotest.test_case "remote round trip" `Quick test_remote_round_trip;
          Alcotest.test_case "binding cache reuse" `Quick
            test_remote_second_send_uses_cache;
          Alcotest.test_case "nonexistent target times out" `Quick
            test_send_to_nonexistent_times_out;
          Alcotest.test_case "dead pid fails fast" `Quick
            test_send_to_dead_process_on_live_host_fails_fast;
          Alcotest.test_case "loss: exactly-once" `Quick
            test_loss_recovery_exactly_once;
          Alcotest.test_case "reply-pending prevents abort" `Quick
            test_slow_server_reply_pending_prevents_abort;
          Alcotest.test_case "lost reply resent from cache" `Quick
            test_lost_reply_resent_from_cache;
          Alcotest.test_case "retained reply expires" `Quick
            test_retained_reply_expires;
          Alcotest.test_case "reply table bounded" `Quick
            test_reply_table_bounded;
        ] );
      ( "groups",
        [
          Alcotest.test_case "collect all" `Quick test_group_send_collect_all;
          Alcotest.test_case "first responder wins" `Quick
            test_group_collect_first_picks_earliest;
          Alcotest.test_case "collect_first timeout" `Quick
            test_group_collect_first_timeout;
        ] );
      ( "kernel-server",
        [
          Alcotest.test_case "ping via local group" `Quick
            test_kernel_server_ping_via_local_group;
          Alcotest.test_case "idle memory and guests" `Quick
            test_idle_kernel_memory_and_guests;
          Alcotest.test_case "remote destroy" `Quick
            test_remote_destroy_via_kernel_server;
        ] );
      ( "freeze",
        [
          Alcotest.test_case "defer and deliver" `Quick
            test_freeze_defers_and_unfreeze_delivers;
          Alcotest.test_case "reply-pending during freeze" `Quick
            test_freeze_remote_sender_gets_reply_pending;
          Alcotest.test_case "stops cpu" `Quick test_freeze_stops_cpu_consumption;
        ] );
      ( "migration-mechanics",
        [
          Alcotest.test_case "idle server" `Quick
            test_migrate_idle_server_then_reach_it;
          Alcotest.test_case "request in service" `Quick
            test_migrate_while_request_in_service;
          Alcotest.test_case "queued request" `Quick
            test_migrate_with_queued_request;
          Alcotest.test_case "client migrates" `Quick
            test_migrating_client_keeps_outstanding_send;
          Alcotest.test_case "destroy fails local senders" `Quick
            test_destroy_fails_local_senders;
          Alcotest.test_case "crash fails senders" `Quick
            test_shutdown_makes_sends_fail;
          Alcotest.test_case "down kernel refuses install" `Quick
            test_down_kernel_refuses_install;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "foreground priority" `Quick
            test_cpu_foreground_priority;
          Alcotest.test_case "round robin" `Quick test_cpu_round_robin_fair;
          Alcotest.test_case "busy fraction" `Quick test_cpu_busy_fraction;
          Alcotest.test_case "quantum allocation" `Quick
            test_cpu_quantum_allocation;
          Alcotest.test_case "kill a lone program" `Quick
            test_cpu_kill_lone_program;
          Alcotest.test_case "foreground waiter mid-run" `Quick
            (test_cpu_waiter_mid_run Cpu.Foreground);
          Alcotest.test_case "equal-priority waiter mid-run" `Quick
            (test_cpu_waiter_mid_run Cpu.Background);
          Alcotest.test_case "freeze mid-run" `Quick test_cpu_freeze_mid_run;
        ] );
      ( "address-space",
        Alcotest.test_case "geometry" `Quick test_space_geometry
        :: Alcotest.test_case "dirty tracking" `Quick test_space_dirty_tracking
        :: Alcotest.test_case "fill all" `Quick test_space_fill_all
        :: qcheck [ prop_space_dirty_consistent ] );
    ]
