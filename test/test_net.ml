(* Tests for the Ethernet model: timing, delivery, multicast, loss, the
   shared-medium FIFO, and bulk-transfer calibration. *)

let ms = Time.of_ms
let _ = ms
let addr = Addr.of_int

type payload = P of int

let make_net ?config ?(seed = 1) () =
  let e = Engine.create () in
  let rng = Rng.create seed in
  let net : payload Ethernet.t = Ethernet.create ?config e rng in
  (e, net)

let test_unicast_delivery () =
  let e, net = make_net () in
  let got = ref [] in
  let _a = Ethernet.attach net (addr 1) (fun _ -> Alcotest.fail "sender rx") in
  let _b =
    Ethernet.attach net (addr 2) (fun f ->
        let (P n) = f.Frame.payload in
        got := (n, Engine.now e) :: !got)
  in
  Ethernet.send net (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:64 (P 7));
  Engine.run e;
  match !got with
  | [ (7, at) ] ->
      (* 64 bytes on a 1.25 MB/s wire: 52us (rounded up) + 5us propagation. *)
      Alcotest.(check int) "arrival time" 57 (Time.to_us at)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_broadcast_excludes_sender () =
  let e, net = make_net () in
  let hits = ref 0 in
  let _a = Ethernet.attach net (addr 1) (fun _ -> Alcotest.fail "self rx") in
  let _b = Ethernet.attach net (addr 2) (fun _ -> incr hits) in
  let _c = Ethernet.attach net (addr 3) (fun _ -> incr hits) in
  Ethernet.send net (Frame.broadcast ~src:(addr 1) ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check int) "both others" 2 !hits

let test_multicast_membership () =
  let e, net = make_net () in
  let hits = ref [] in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let b = Ethernet.attach net (addr 2) (fun _ -> hits := 2 :: !hits) in
  let _c = Ethernet.attach net (addr 3) (fun _ -> hits := 3 :: !hits) in
  Ethernet.subscribe b 77;
  Ethernet.send net (Frame.multicast ~src:(addr 1) ~group:77 ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check (list int)) "only subscriber" [ 2 ] !hits

let test_unsubscribe () =
  let e, net = make_net () in
  let hits = ref 0 in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let b = Ethernet.attach net (addr 2) (fun _ -> incr hits) in
  Ethernet.subscribe b 5;
  Ethernet.unsubscribe b 5;
  Ethernet.send net (Frame.multicast ~src:(addr 1) ~group:5 ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check int) "no delivery" 0 !hits

let test_detach_drops () =
  let e, net = make_net () in
  let hits = ref 0 in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let b = Ethernet.attach net (addr 2) (fun _ -> incr hits) in
  Ethernet.send net (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:64 (P 0));
  Ethernet.detach b;
  Engine.run e;
  Alcotest.(check int) "crashed host receives nothing" 0 !hits;
  Alcotest.(check bool) "attached reports false" false (Ethernet.attached b)

let test_attach_duplicate_raises () =
  let _, net = make_net () in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  Alcotest.check_raises "duplicate attach"
    (Invalid_argument "Ethernet.attach: station-1 already attached") (fun () ->
      ignore (Ethernet.attach net (addr 1) (fun _ -> ())))

let test_oversize_frame_rejected () =
  let _, net = make_net () in
  Alcotest.check_raises "oversize"
    (Invalid_argument "Ethernet.send: frame of 9999 bytes exceeds maximum 1536")
    (fun () ->
      Ethernet.send net (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:9999 (P 0)))

let test_medium_serializes () =
  let e, net = make_net () in
  let times = ref [] in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let _b =
    Ethernet.attach net (addr 2) (fun _ -> times := Engine.now e :: !times)
  in
  (* Two 1250-byte frames offered at t=0: wire time 1ms each; the second
     must queue behind the first. *)
  Ethernet.send net (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:1250 (P 1));
  Ethernet.send net (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:1250 (P 2));
  Engine.run e;
  match List.rev !times with
  | [ t1; t2 ] ->
      Alcotest.(check int) "first clears at 1ms+prop" 1005 (Time.to_us t1);
      Alcotest.(check int) "second waits for medium" 2005 (Time.to_us t2)
  | _ -> Alcotest.fail "expected two deliveries"

let test_loss () =
  let config = { Ethernet.default_config with loss_probability = 1.0 } in
  let e, net = make_net ~config () in
  let hits = ref 0 in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let _b = Ethernet.attach net (addr 2) (fun _ -> incr hits) in
  for _ = 1 to 10 do
    Ethernet.send net (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:64 (P 0))
  done;
  Engine.run e;
  Alcotest.(check int) "all lost" 0 !hits;
  Alcotest.(check int) "drop counter" 10 (Ethernet.frames_dropped net)

let test_set_loss_midrun () =
  let e, net = make_net () in
  let hits = ref 0 in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let _b = Ethernet.attach net (addr 2) (fun _ -> incr hits) in
  Ethernet.send net (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:64 (P 0));
  Ethernet.set_loss net 1.0;
  Ethernet.send net (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check int) "first delivered, second lost" 1 !hits

let test_wire_time_padding () =
  let _, net = make_net () in
  (* A 10-byte frame is padded to the 64-byte minimum: 52us. *)
  Alcotest.(check int) "padded" 52 (Time.to_us (Ethernet.wire_time net 10));
  Alcotest.(check int) "1KB frame" 820 (Time.to_us (Ethernet.wire_time net 1024))

(* {1 Recipient-cache invalidation}

   Delivery uses cached sorted rosters (whole-wire and per-group); these
   tests churn membership between cached deliveries to prove the caches
   invalidate on attach, detach, subscribe, and unsubscribe. *)

let test_roster_sees_late_attach () =
  let e, net = make_net () in
  let hits = ref 0 in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let _b = Ethernet.attach net (addr 2) (fun _ -> incr hits) in
  (* Prime the broadcast roster cache... *)
  Ethernet.send net (Frame.broadcast ~src:(addr 1) ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check int) "first broadcast" 1 !hits;
  (* ...then attach a new station and broadcast again: the stale roster
     would miss it. *)
  let _c = Ethernet.attach net (addr 3) (fun _ -> hits := !hits + 10) in
  Ethernet.send net (Frame.broadcast ~src:(addr 1) ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check int) "late attach receives" 12 !hits

let test_roster_detach_then_reattach () =
  let e, net = make_net () in
  let hits = ref 0 in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let b = Ethernet.attach net (addr 2) (fun _ -> incr hits) in
  Ethernet.send net (Frame.broadcast ~src:(addr 1) ~bytes:64 (P 0));
  Engine.run e;
  Ethernet.detach b;
  Ethernet.send net (Frame.broadcast ~src:(addr 1) ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check int) "detached station silent" 1 !hits;
  (* Reboot: same address, fresh station — the cache must pick it up. *)
  let _b' = Ethernet.attach net (addr 2) (fun _ -> hits := !hits + 10) in
  Ethernet.send net (Frame.broadcast ~src:(addr 1) ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check int) "reattached station receives" 11 !hits

let test_group_roster_churn () =
  let e, net = make_net () in
  let log = ref [] in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let b = Ethernet.attach net (addr 2) (fun _ -> log := 2 :: !log) in
  let c = Ethernet.attach net (addr 3) (fun _ -> log := 3 :: !log) in
  let cast () =
    Ethernet.send net (Frame.multicast ~src:(addr 1) ~group:77 ~bytes:64 (P 0));
    Engine.run e
  in
  Ethernet.subscribe b 77;
  cast ();
  (* Membership flips between cached deliveries. *)
  Ethernet.subscribe c 77;
  cast ();
  Ethernet.unsubscribe b 77;
  cast ();
  Ethernet.detach c;
  cast ();
  Alcotest.(check (list int))
    "each delivery sees current membership" [ 2; 2; 3; 3 ] (List.rev !log)

(* {1 Bulk transfers} *)

let test_transfer_rate_calibration () =
  (* The headline constant: 3 seconds per megabyte (Section 4.1). *)
  let rate =
    Transfer.seconds_per_megabyte ~config:Ethernet.default_config
      ~pacing:Transfer.v_pacing
  in
  if rate < 2.9 || rate > 3.1 then
    Alcotest.failf "bulk rate %.3f s/MB outside [2.9, 3.1]" rate

let test_transfer_duration_zero () =
  let d =
    Transfer.duration ~config:Ethernet.default_config ~pacing:Transfer.v_pacing
      ~bytes:0
  in
  Alcotest.(check int) "zero bytes" 0 (Time.to_us d)

let test_bulk_copy_matches_duration () =
  let e, net = make_net () in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let finished = ref Time.zero in
  ignore
    (Proc.spawn e (fun () ->
         Transfer.bulk_copy net ~bytes:(100 * 1024);
         finished := Engine.now e));
  Engine.run e;
  let expected =
    Transfer.duration ~config:Ethernet.default_config ~pacing:Transfer.v_pacing
      ~bytes:(100 * 1024)
  in
  Alcotest.(check int)
    "idle-network copy matches closed form"
    (Time.to_us expected)
    (Time.to_us !finished)

let test_bulk_copy_with_loss_takes_longer () =
  let config = { Ethernet.default_config with loss_probability = 0.2 } in
  let e, net = make_net ~config ~seed:3 () in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let finished = ref Time.zero in
  ignore
    (Proc.spawn e (fun () ->
         Transfer.bulk_copy net ~bytes:(50 * 1024);
         finished := Engine.now e));
  Engine.run e;
  let lossless =
    Transfer.duration ~config:Ethernet.default_config ~pacing:Transfer.v_pacing
      ~bytes:(50 * 1024)
  in
  if Time.(!finished <= lossless) then
    Alcotest.fail "retransmissions must stretch the copy"

(* A copy's frames are sent by its pacing timer, not by its process:
   killing the process stops them, and until then every lost frame is
   re-sent, so an uncut copy carries each of its frames exactly once
   more than it loses. *)
let make_bridged ?(delay = Time.of_ms 2.) () =
  let e = Engine.create () in
  let rng = Rng.create 8 in
  let a : payload Ethernet.t = Ethernet.create e (Rng.split rng) in
  let b : payload Ethernet.t = Ethernet.create e (Rng.split rng) in
  Ethernet.bridge a b ~forward_delay:delay;
  (e, a, b)

let test_bulk_copy_killed_mid_copy () =
  let config = { Ethernet.default_config with loss_probability = 0.2 } in
  let copy ~kill_at =
    let e, net = make_net ~config ~seed:3 () in
    let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
    let finished = ref false in
    let p =
      Proc.spawn e (fun () ->
          Transfer.bulk_copy net ~bytes:(100 * 1024);
          finished := true)
    in
    let at_kill = ref 0 in
    Option.iter
      (fun at ->
        ignore
          (Engine.schedule e ~at (fun () ->
               Proc.kill p;
               at_kill := Ethernet.frames_sent net)))
      kill_at;
    Engine.run e;
    (net, !finished, !at_kill)
  in
  let net, finished, _ = copy ~kill_at:None in
  Alcotest.(check bool) "uncut copy finishes" true finished;
  if Ethernet.frames_dropped net = 0 then Alcotest.fail "expected lost frames";
  Alcotest.(check int) "sent = frames + lost" 100
    (Ethernet.frames_sent net - Ethernet.frames_dropped net);
  let net, finished, at_kill = copy ~kill_at:(Some (ms 150.)) in
  Alcotest.(check bool) "killed copy never finishes" false finished;
  if at_kill < 40 then Alcotest.failf "only %d frames before the kill" at_kill;
  Alcotest.(check int) "no frame after the kill" at_kill
    (Ethernet.frames_sent net);
  (* A kill while the tail crosses a bridge: every frame is sent and
     paced, and the copy waits only for the far side to land it. *)
  let bridged ~kill_at =
    let e, a, b = make_bridged () in
    let _s1 = Ethernet.attach a (addr 1) (fun _ -> ()) in
    let _s2 = Ethernet.attach b (addr 2) (fun _ -> ()) in
    let finished = ref None in
    let p =
      Proc.spawn e (fun () ->
          Transfer.bulk_copy ~dst:(addr 2) a ~bytes:(4 * 1024);
          finished := Some (Engine.now e))
    in
    Option.iter
      (fun at -> ignore (Engine.schedule e ~at (fun () -> Proc.kill p)))
      kill_at;
    Engine.run e;
    (!finished, Ethernet.frames_sent a, Engine.now e)
  in
  let last_pace =
    Transfer.duration ~config:Ethernet.default_config ~pacing:Transfer.v_pacing
      ~bytes:(4 * 1024)
  in
  match bridged ~kill_at:None with
  | None, _, _ -> Alcotest.fail "uncut bridged copy never finished"
  | Some done_at, sent, _ ->
      let kill_at = Time.sub done_at (ms 1.) in
      if Time.(kill_at <= last_pace) then
        Alcotest.failf "tail window closes at %s, last pace at %s"
          (Time.to_string done_at) (Time.to_string last_pace);
      let finished, sent', ended = bridged ~kill_at:(Some kill_at) in
      Alcotest.(check bool) "killed in the tail: never finishes" true
        (finished = None);
      Alcotest.(check int) "every frame sent before the kill" sent sent';
      Alcotest.(check int) "the tail's timer still fires, as a no-op"
        (Time.to_us done_at) (Time.to_us ended)

(* {2 Page-sequenced copies under an injected loss window}

   Migration moves an address space as a sequence of page transfers; a
   [Faults.Loss_window] must stretch them but never reorder, drop, or
   wedge them. Each 1 KB page is a blocking [bulk_copy], so completion
   order is page order by construction — what these tests pin is that
   retransmission under heavy loss terminates, preserves that order, and
   stays a deterministic function of the seed. *)

let paged_copy_completions ?(pages = 32) ~seed plan =
  let e, net = make_net ~seed () in
  let tracer = Tracer.create e in
  let hooks =
    {
      Faults.h_crash = ignore;
      h_reboot = ignore;
      h_loss = Ethernet.set_loss net;
      h_base_loss =
        (fun () -> (Ethernet.config net).Ethernet.loss_probability);
      h_partition = (fun ~up:_ -> ());
      h_slow = (fun _ _ -> ());
    }
  in
  let _installed = Faults.install e tracer hooks plan in
  let _sink = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let completions = ref [] in
  ignore
    (Proc.spawn e (fun () ->
         for page = 1 to pages do
           Transfer.bulk_copy net ~bytes:1024;
           completions := (page, Engine.now e) :: !completions
         done));
  Engine.run e;
  List.rev !completions

let heavy_loss =
  [ Faults.Loss_window { p = 0.3; start = Time.zero; stop = Time.of_sec 600. } ]

let test_paged_copy_terminates_under_loss () =
  let cs = paged_copy_completions ~seed:11 heavy_loss in
  (* Engine.run returning at all means no page wedged; every page must
     also have completed. *)
  Alcotest.(check int) "all pages transferred" 32 (List.length cs)

let test_paged_copy_preserves_order () =
  let cs = paged_copy_completions ~seed:11 heavy_loss in
  ignore
    (List.fold_left
       (fun (prev_page, prev_at) (page, at) ->
         Alcotest.(check int) "pages complete in sequence" (prev_page + 1) page;
         if Time.(at <= prev_at) then
           Alcotest.failf "page %d completed at %s, not after page %d at %s"
             page (Time.to_string at) prev_page (Time.to_string prev_at);
         (page, at))
       (0, Time.of_us (-1)) cs)

let test_paged_copy_loss_window_stretches () =
  let finish cs = snd (List.nth cs (List.length cs - 1)) in
  let lossless = finish (paged_copy_completions ~seed:11 []) in
  let lossy = finish (paged_copy_completions ~seed:11 heavy_loss) in
  if Time.(lossy <= lossless) then
    Alcotest.fail "a 30% loss window must stretch the transfer"

let test_paged_copy_deterministic_per_seed () =
  let a = paged_copy_completions ~seed:17 heavy_loss in
  let b = paged_copy_completions ~seed:17 heavy_loss in
  Alcotest.(check bool) "same seed, same completion schedule" true (a = b);
  let c = paged_copy_completions ~seed:18 heavy_loss in
  Alcotest.(check bool) "different seed, different retransmissions" true
    (a <> c)

let test_concurrent_copies_contend () =
  (* Two simultaneous bulk copies on one wire must each take longer than
     one alone would, but far less than 2x (the wire is only ~28% of the
     per-frame cost; host pacing dominates). *)
  let e, net = make_net () in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let done1 = ref Time.zero and done2 = ref Time.zero in
  ignore
    (Proc.spawn e (fun () ->
         Transfer.bulk_copy net ~bytes:(100 * 1024);
         done1 := Engine.now e));
  ignore
    (Proc.spawn e (fun () ->
         Transfer.bulk_copy net ~bytes:(100 * 1024);
         done2 := Engine.now e));
  Engine.run e;
  let solo =
    Transfer.duration ~config:Ethernet.default_config ~pacing:Transfer.v_pacing
      ~bytes:(100 * 1024)
  in
  let slower = Time.max !done1 !done2 in
  if Time.(slower <= solo) then Alcotest.fail "no contention observed";
  if Time.(slower > Time.scale solo 2.0) then
    Alcotest.fail "contention worse than full serialization"

let test_stats_counters () =
  let e, net = make_net () in
  let _a = Ethernet.attach net (addr 1) (fun _ -> ()) in
  let _b = Ethernet.attach net (addr 2) (fun _ -> ()) in
  Ethernet.send net (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:100 (P 0));
  Engine.run e;
  Alcotest.(check int) "sent" 1 (Ethernet.frames_sent net);
  Alcotest.(check int) "delivered" 1 (Ethernet.frames_delivered net);
  Alcotest.(check int) "bytes" 100 (Ethernet.bytes_carried net)

(* {1 Bridged segments} *)

let test_bridge_unicast_crosses () =
  let e, a, b = make_bridged () in
  let _s1 = Ethernet.attach a (addr 1) (fun _ -> ()) in
  let got = ref None in
  let _s2 = Ethernet.attach b (addr 2) (fun f -> got := Some (Engine.now e, f)) in
  Ethernet.send a (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:64 (P 9));
  Engine.run e;
  match !got with
  | Some (at, f) ->
      let (P n) = f.Frame.payload in
      Alcotest.(check int) "payload" 9 n;
      (* 52us wire + 5us prop + 2ms bridge + 52us wire + 5us prop. *)
      Alcotest.(check int) "timing includes bridge delay" 2114 (Time.to_us at)
  | None -> Alcotest.fail "frame did not cross the bridge"

let test_bridge_unicast_stays_local_when_local () =
  let e, a, b = make_bridged () in
  let hits_b = ref 0 in
  let _s1 = Ethernet.attach a (addr 1) (fun _ -> ()) in
  let _s2 = Ethernet.attach a (addr 2) (fun _ -> ()) in
  let _s3 = Ethernet.attach b (addr 3) (fun _ -> incr hits_b) in
  Ethernet.send a (Frame.unicast ~src:(addr 1) ~dst:(addr 2) ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check int) "no leak to far segment" 0 !hits_b;
  (* The far wire carried nothing. *)
  Alcotest.(check int) "far segment idle" 0 (Ethernet.frames_sent b)

let test_bridge_broadcast_floods_once () =
  let e, a, b = make_bridged () in
  let near = ref 0 and far = ref 0 in
  let _s1 = Ethernet.attach a (addr 1) (fun _ -> ()) in
  let _s2 = Ethernet.attach a (addr 2) (fun _ -> incr near) in
  let _s3 = Ethernet.attach b (addr 3) (fun _ -> incr far) in
  let _s4 = Ethernet.attach b (addr 4) (fun _ -> incr far) in
  Ethernet.send a (Frame.broadcast ~src:(addr 1) ~bytes:64 (P 0));
  Engine.run e;
  Alcotest.(check int) "near delivery" 1 !near;
  Alcotest.(check int) "far deliveries" 2 !far;
  (* Single hop: the far copy is not reflected back. *)
  Alcotest.(check int) "one frame per wire" 1 (Ethernet.frames_sent b)

let test_bridge_locate () =
  let _, a, b = make_bridged () in
  let _s1 = Ethernet.attach a (addr 1) (fun _ -> ()) in
  let _s2 = Ethernet.attach b (addr 2) (fun _ -> ()) in
  (match Ethernet.locate a (addr 1) with
  | `Local -> ()
  | _ -> Alcotest.fail "addr 1 is local to a");
  (match Ethernet.locate a (addr 2) with
  | `Peer (_, d) -> Alcotest.(check int) "delay" 2000 (Time.to_us d)
  | _ -> Alcotest.fail "addr 2 should be at the peer");
  match Ethernet.locate a (addr 9) with
  | `Unknown -> ()
  | _ -> Alcotest.fail "addr 9 is nowhere"

let test_bridge_partition_sever_heal () =
  (* Severing and healing the bridge between cached deliveries: the far
     segment's roster must drop out and come back. *)
  let e, a, b = make_bridged () in
  let far = ref 0 in
  let _s1 = Ethernet.attach a (addr 1) (fun _ -> ()) in
  let _s2 = Ethernet.attach b (addr 2) (fun _ -> incr far) in
  let cast () =
    Ethernet.send a (Frame.broadcast ~src:(addr 1) ~bytes:64 (P 0));
    Engine.run e
  in
  cast ();
  Alcotest.(check int) "joined: crosses" 1 !far;
  Ethernet.sever_bridge a b;
  cast ();
  Alcotest.(check int) "partitioned: stays local" 1 !far;
  Ethernet.heal_bridge a b;
  cast ();
  Alcotest.(check int) "healed: crosses again" 2 !far

let test_bridge_bulk_copy_occupies_both () =
  let e, a, b = make_bridged () in
  let _s1 = Ethernet.attach a (addr 1) (fun _ -> ()) in
  let _s2 = Ethernet.attach b (addr 2) (fun _ -> ()) in
  let finished = ref Time.zero in
  ignore
    (Proc.spawn e (fun () ->
         Transfer.bulk_copy ~dst:(addr 2) a ~bytes:(50 * 1024);
         finished := Engine.now e));
  Engine.run e;
  let local_only =
    Transfer.duration ~config:Ethernet.default_config ~pacing:Transfer.v_pacing
      ~bytes:(50 * 1024)
  in
  if Time.(!finished <= local_only) then
    Alcotest.fail "cross-segment copy must cost more than a local one";
  (* Both wires saw the frames. *)
  Alcotest.(check int) "far wire carried the copy" 50 (Ethernet.frames_sent b)

let () =
  Alcotest.run "v_net"
    [
      ( "delivery",
        [
          Alcotest.test_case "unicast" `Quick test_unicast_delivery;
          Alcotest.test_case "broadcast excludes sender" `Quick
            test_broadcast_excludes_sender;
          Alcotest.test_case "multicast membership" `Quick
            test_multicast_membership;
          Alcotest.test_case "unsubscribe" `Quick test_unsubscribe;
          Alcotest.test_case "detach drops" `Quick test_detach_drops;
          Alcotest.test_case "duplicate attach" `Quick
            test_attach_duplicate_raises;
          Alcotest.test_case "oversize rejected" `Quick
            test_oversize_frame_rejected;
        ] );
      ( "roster cache",
        [
          Alcotest.test_case "late attach" `Quick test_roster_sees_late_attach;
          Alcotest.test_case "detach then reattach" `Quick
            test_roster_detach_then_reattach;
          Alcotest.test_case "group churn" `Quick test_group_roster_churn;
          Alcotest.test_case "partition sever/heal" `Quick
            test_bridge_partition_sever_heal;
        ] );
      ( "medium",
        [
          Alcotest.test_case "serializes" `Quick test_medium_serializes;
          Alcotest.test_case "loss" `Quick test_loss;
          Alcotest.test_case "loss mid-run" `Quick test_set_loss_midrun;
          Alcotest.test_case "wire time" `Quick test_wire_time_padding;
          Alcotest.test_case "counters" `Quick test_stats_counters;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "unicast crosses" `Quick test_bridge_unicast_crosses;
          Alcotest.test_case "local stays local" `Quick
            test_bridge_unicast_stays_local_when_local;
          Alcotest.test_case "broadcast floods once" `Quick
            test_bridge_broadcast_floods_once;
          Alcotest.test_case "locate" `Quick test_bridge_locate;
          Alcotest.test_case "bulk copy occupies both wires" `Quick
            test_bridge_bulk_copy_occupies_both;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "3s/MB calibration" `Quick
            test_transfer_rate_calibration;
          Alcotest.test_case "zero bytes" `Quick test_transfer_duration_zero;
          Alcotest.test_case "copy matches closed form" `Quick
            test_bulk_copy_matches_duration;
          Alcotest.test_case "loss stretches copy" `Quick
            test_bulk_copy_with_loss_takes_longer;
          Alcotest.test_case "bulk copy killed mid-copy" `Quick
            test_bulk_copy_killed_mid_copy;
          Alcotest.test_case "concurrent copies contend" `Quick
            test_concurrent_copies_contend;
          Alcotest.test_case "loss window: copies terminate" `Quick
            test_paged_copy_terminates_under_loss;
          Alcotest.test_case "loss window: page order preserved" `Quick
            test_paged_copy_preserves_order;
          Alcotest.test_case "loss window stretches the transfer" `Quick
            test_paged_copy_loss_window_stretches;
          Alcotest.test_case "loss window: deterministic per seed" `Quick
            test_paged_copy_deterministic_per_seed;
        ] );
    ]
