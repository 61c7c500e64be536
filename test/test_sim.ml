(* Tests for the simulation substrate: time, rng, engine, processes
   and the synchronization primitives. *)

let ms = Time.of_ms
let us = Time.of_us

(* {1 Time} *)

let test_time_conversions () =
  Alcotest.(check int) "of_ms" 1500 (Time.to_us (ms 1.5));
  Alcotest.(check int) "of_sec" 3_000_000 (Time.to_us (Time.of_sec 3.));
  Alcotest.(check (float 1e-9)) "to_ms" 0.013 (Time.to_ms (us 13));
  Alcotest.(check (float 1e-9)) "to_sec" 2.5 (Time.to_sec (Time.of_sec 2.5))

let test_time_arith () =
  Alcotest.(check int) "add" 300 (Time.to_us (Time.add (us 100) (us 200)));
  Alcotest.(check int) "sub" (-100) (Time.to_us (Time.sub (us 100) (us 200)));
  Alcotest.(check int) "mul" 900 (Time.to_us (Time.mul (us 300) 3));
  Alcotest.(check int) "scale" 450 (Time.to_us (Time.scale (us 300) 1.5));
  Alcotest.(check bool) "lt" true Time.(us 1 < us 2);
  Alcotest.(check bool) "ge" true Time.(us 2 >= us 2)

let test_time_pp () =
  Alcotest.(check string) "us" "13us" (Time.to_string (us 13));
  Alcotest.(check string) "s" "3.000s" (Time.to_string (Time.of_sec 3.))

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* Drawing from [b] must not perturb [a]'s future relative to a clone
     that ignores [b]. *)
  let a' = Rng.create 7 in
  let _ = Rng.split a' in
  let _ = Rng.bits64 b in
  Alcotest.(check int64) "split independent" (Rng.bits64 a') (Rng.bits64 a)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of bounds";
    let f = Rng.float r 2.5 in
    if f < 0. || f >= 2.5 then Alcotest.fail "float out of bounds"
  done

let prop_rng_exponential_positive =
  QCheck.Test.make ~name:"exponential draws are positive" ~count:200
    QCheck.(int_bound 10_000)
    (fun seed ->
      let r = Rng.create seed in
      Rng.exponential r ~mean:5.0 > 0.)

let test_rng_bool_bias () =
  let r = Rng.create 3 in
  let n = 10_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool r 0.25 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  if frac < 0.2 || frac > 0.3 then
    Alcotest.failf "bool(0.25) frequency off: %.3f" frac

(* {1 Engine} *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule e ~at:(ms 2.) (note "b"));
  ignore (Engine.schedule e ~at:(ms 1.) (note "a"));
  ignore (Engine.schedule e ~at:(ms 2.) (note "c"));
  Engine.run e;
  Alcotest.(check (list string)) "time then fifo" [ "a"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check int) "clock at last event" 2000 (Time.to_us (Engine.now e))

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~at:(ms 1.) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~at:(ms 1.) (fun () -> incr fired));
  ignore (Engine.schedule e ~at:(ms 5.) (fun () -> incr fired));
  Engine.run e ~until:(ms 3.);
  Alcotest.(check int) "only early event" 1 !fired;
  Alcotest.(check int) "clock at horizon" 3000 (Time.to_us (Engine.now e));
  Engine.run e;
  Alcotest.(check int) "late event eventually" 2 !fired

let test_engine_until_skips_cancelled () =
  let e = Engine.create () in
  let fired = ref 0 in
  let h = Engine.schedule e ~at:(ms 1.) (fun () -> incr fired) in
  ignore (Engine.schedule e ~at:(ms 5.) (fun () -> incr fired));
  Engine.cancel h;
  Engine.run e ~until:(ms 2.);
  Alcotest.(check int) "cancelled event must not admit late one" 0 !fired

let test_engine_schedule_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:(ms 2.) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule: at 1ms < now 2ms") (fun () ->
      ignore (Engine.schedule e ~at:(ms 1.) ignore))

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~at:(ms 1.) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_after e (ms 1.) (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "fired count" 2 (Engine.events_fired e)

(* {1 Proc} *)

let test_proc_runs () =
  let e = Engine.create () in
  let ran = ref false in
  let p = Proc.spawn e (fun () -> ran := true) in
  Engine.run e;
  Alcotest.(check bool) "ran" true !ran;
  Alcotest.(check bool) "done" false (Proc.alive p);
  Alcotest.(check bool) "normal exit" true (Proc.status p = Some Proc.Normal)

let test_proc_sleep_advances_clock () =
  let e = Engine.create () in
  let woke_at = ref Time.zero in
  ignore
    (Proc.spawn e (fun () ->
         Proc.sleep e (ms 5.);
         woke_at := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "slept 5ms" 5000 (Time.to_us !woke_at)

let test_proc_kill_sleeping () =
  let e = Engine.create () in
  let reached = ref false in
  let cleaned = ref false in
  let p =
    Proc.spawn e (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            Proc.sleep e (Time.of_sec 10.);
            reached := true))
  in
  ignore (Engine.schedule e ~at:(ms 1.) (fun () -> Proc.kill p));
  Engine.run e;
  Alcotest.(check bool) "body not resumed" false !reached;
  Alcotest.(check bool) "protect ran" true !cleaned;
  Alcotest.(check bool) "killed status" true (Proc.status p = Some Proc.Killed)

let test_proc_kill_embryo () =
  let e = Engine.create () in
  let ran = ref false in
  let p = Proc.spawn e (fun () -> ran := true) in
  Proc.kill p;
  Engine.run e;
  Alcotest.(check bool) "never ran" false !ran;
  Alcotest.(check bool) "killed" true (Proc.status p = Some Proc.Killed)

let test_proc_exn_captured () =
  let e = Engine.create () in
  let p = Proc.spawn e (fun () -> failwith "boom") in
  Engine.run e;
  match Proc.status p with
  | Some (Proc.Exn (Failure m)) -> Alcotest.(check string) "msg" "boom" m
  | _ -> Alcotest.fail "expected Exn status"

let test_proc_join () =
  let e = Engine.create () in
  let order = ref [] in
  let a =
    Proc.spawn e (fun () ->
        Proc.sleep e (ms 3.);
        order := "a" :: !order)
  in
  ignore
    (Proc.spawn e (fun () ->
         let ex = Proc.join a in
         Alcotest.(check bool) "a finished normally" true (ex = Proc.Normal);
         order := "b" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "join ordering" [ "a"; "b" ] (List.rev !order)

let test_proc_pause_defers_wake () =
  let e = Engine.create () in
  let woke_at = ref Time.zero in
  let p =
    Proc.spawn e (fun () ->
        Proc.sleep e (ms 2.);
        woke_at := Engine.now e)
  in
  (* Pause at 1ms (mid-sleep); sleep timer fires at 2ms but must defer;
     unpause at 10ms delivers it. *)
  ignore (Engine.schedule e ~at:(ms 1.) (fun () -> Proc.pause p));
  ignore (Engine.schedule e ~at:(ms 10.) (fun () -> Proc.unpause p));
  Engine.run e;
  Alcotest.(check int) "woke only on unpause" 10_000 (Time.to_us !woke_at)

let test_proc_pause_unpause_before_wake () =
  let e = Engine.create () in
  let woke_at = ref Time.zero in
  let p =
    Proc.spawn e (fun () ->
        Proc.sleep e (ms 5.);
        woke_at := Engine.now e)
  in
  (* Pause then unpause before the timer fires: no deferral happens. *)
  ignore (Engine.schedule e ~at:(ms 1.) (fun () -> Proc.pause p));
  ignore (Engine.schedule e ~at:(ms 2.) (fun () -> Proc.unpause p));
  Engine.run e;
  Alcotest.(check int) "normal wake" 5000 (Time.to_us !woke_at)

let test_proc_kill_while_paused () =
  let e = Engine.create () in
  let resumed = ref false in
  let p =
    Proc.spawn e (fun () ->
        Proc.sleep e (ms 2.);
        resumed := true)
  in
  ignore (Engine.schedule e ~at:(ms 1.) (fun () -> Proc.pause p));
  ignore (Engine.schedule e ~at:(ms 3.) (fun () -> Proc.kill p));
  Engine.run e;
  Alcotest.(check bool) "never resumed" false !resumed;
  Alcotest.(check bool) "killed" true (Proc.status p = Some Proc.Killed)

let test_proc_on_exit () =
  let e = Engine.create () in
  let seen = ref None in
  let p = Proc.spawn e (fun () -> ()) in
  Proc.on_exit p (fun ex -> seen := Some ex);
  Engine.run e;
  Alcotest.(check bool) "hook ran" true (!seen = Some Proc.Normal);
  (* Registering after exit fires immediately. *)
  let late = ref None in
  Proc.on_exit p (fun ex -> late := Some ex);
  Alcotest.(check bool) "late hook" true (!late = Some Proc.Normal)

(* {1 Ivar} *)

let test_ivar_fill_then_read () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 42;
  let got = ref 0 in
  ignore (Proc.spawn e (fun () -> got := Ivar.read iv));
  Engine.run e;
  Alcotest.(check int) "read filled" 42 !got

let test_ivar_read_blocks () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got_at = ref (Time.zero, 0) in
  ignore
    (Proc.spawn e (fun () ->
         let v = Ivar.read iv in
         got_at := (Engine.now e, v)));
  ignore (Engine.schedule e ~at:(ms 7.) (fun () -> Ivar.fill iv 9));
  Engine.run e;
  Alcotest.(check int) "value" 9 (snd !got_at);
  Alcotest.(check int) "time" 7000 (Time.to_us (fst !got_at))

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.(check bool) "try_fill fails" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Ivar.fill iv 3)

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    ignore (Proc.spawn e (fun () -> sum := !sum + Ivar.read iv))
  done;
  ignore (Engine.schedule e ~at:(ms 1.) (fun () -> Ivar.fill iv 5));
  Engine.run e;
  Alcotest.(check int) "all woke" 15 !sum

(* {1 Mailbox} *)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  ignore
    (Proc.spawn e (fun () ->
         for _ = 1 to 3 do
           got := Mailbox.recv mb :: !got
         done));
  ignore
    (Engine.schedule e ~at:(ms 1.) (fun () ->
         Mailbox.send mb 1;
         Mailbox.send mb 2;
         Mailbox.send mb 3));
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_timeout_expires () =
  let e = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let r = ref (Some 0) in
  ignore
    (Proc.spawn e (fun () -> r := Mailbox.recv_timeout e mb (ms 5.)));
  Engine.run e;
  Alcotest.(check (option int)) "timed out" None !r;
  Alcotest.(check int) "waited 5ms" 5000 (Time.to_us (Engine.now e))

let test_mailbox_timeout_delivers () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let r = ref None in
  ignore
    (Proc.spawn e (fun () -> r := Mailbox.recv_timeout e mb (ms 5.)));
  ignore (Engine.schedule e ~at:(ms 2.) (fun () -> Mailbox.send mb 11));
  Engine.run e;
  Alcotest.(check (option int)) "delivered" (Some 11) !r

let test_mailbox_timeout_no_lost_wakeup () =
  (* After a timeout, the stale reader registration must not swallow a
     later send destined for a healthy reader. *)
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let first = ref None and second = ref None in
  ignore
    (Proc.spawn e (fun () ->
         first := Mailbox.recv_timeout e mb (ms 2.)));
  ignore
    (Proc.spawn e (fun () ->
         second := Mailbox.recv_timeout e mb (ms 20.)));
  ignore (Engine.schedule e ~at:(ms 10.) (fun () -> Mailbox.send mb 1));
  Engine.run e;
  Alcotest.(check (option int)) "r1 timed out" None !first;
  Alcotest.(check (option int)) "r2 got message" (Some 1) !second

let test_mailbox_drain () =
  let mb = Mailbox.create () in
  Mailbox.send mb 1;
  Mailbox.send mb 2;
  Alcotest.(check int) "length" 2 (Mailbox.length mb);
  Alcotest.(check (list int)) "drain" [ 1; 2 ] (Mailbox.drain mb);
  Alcotest.(check int) "empty after" 0 (Mailbox.length mb)

(* {1 Stats} *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.record s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "p50" 3. (Stats.Summary.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Stats.Summary.percentile s 100.);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.) (Stats.Summary.stddev s)

let test_percentile_edge_cases () =
  let empty = Stats.Summary.create () in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.Summary.percentile empty 50.));
  let one = Stats.Summary.create () in
  Stats.Summary.record one 7.;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single sample at p=%g" p)
        7.
        (Stats.Summary.percentile one p))
    [ 0.; 50.; 100. ];
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.record s) [ 9.; 1.; 5. ];
  Alcotest.(check (float 1e-9)) "p0 is min" 1. (Stats.Summary.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100 is max" 9.
    (Stats.Summary.percentile s 100.);
  (* Out-of-range p clamps rather than raising. *)
  Alcotest.(check (float 1e-9)) "p<0 clamps to min" 1.
    (Stats.Summary.percentile s (-3.));
  Alcotest.(check (float 1e-9)) "p>100 clamps to max" 9.
    (Stats.Summary.percentile s 150.)

let test_gauge_time_average () =
  let e = Engine.create () in
  let g = Stats.Gauge.create e ~initial:0. in
  ignore (Engine.schedule e ~at:(ms 10.) (fun () -> Stats.Gauge.set g 1.));
  ignore (Engine.schedule e ~at:(ms 30.) (fun () -> Stats.Gauge.set g 0.));
  Engine.run e ~until:(ms 40.);
  (* 1.0 for 20ms out of 40ms. *)
  Alcotest.(check (float 1e-6)) "time avg" 0.5 (Stats.Gauge.time_average g)

(* {1 Tracer} *)

type Tracer.event += Probe of { cat : string; msg : string }

let () =
  Tracer.register_view (function
    | Probe { cat; msg } -> Tracer.view_as cat "probe" [ ("msg", Str msg) ]
    | _ -> None)

let probe tr cat msg = Tracer.emit tr (Probe { cat; msg })

let test_tracer_records () =
  let e = Engine.create () in
  let tr = Tracer.create e in
  ignore (Engine.schedule e ~at:(ms 3.) (fun () -> probe tr "x" "hello"));
  Engine.run e;
  match Tracer.records tr with
  | [ r ] ->
      Alcotest.(check string)
        "rendering" "#0      [       3ms] x: probe msg=hello"
        (Format.asprintf "%a" Tracer.pp_record r);
      Alcotest.(check int) "time" 3000 (Time.to_us r.Tracer.at)
  | _ -> Alcotest.fail "expected one record"

let test_tracer_disabled () =
  let e = Engine.create () in
  let tr = Tracer.create e in
  Tracer.set_enabled tr false;
  probe tr "x" "dropped";
  Alcotest.(check int) "no records" 0 (List.length (Tracer.records tr))

(* {1 More properties} *)

let prop_engine_fires_in_time_order =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t ->
          ignore
            (Engine.schedule e ~at:(us t) (fun () -> fired := t :: !fired)))
        times;
      Engine.run e;
      let l = List.rev !fired in
      List.sort Int.compare l = l && List.length l = List.length times)

let prop_rng_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle permutes" ~count:100
    QCheck.(pair (int_bound 1000) (list int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.create seed) a;
      List.sort Int.compare (Array.to_list a) = List.sort Int.compare l)

let prop_rng_uniform_span_in_bounds =
  QCheck.Test.make ~name:"uniform_span within bounds" ~count:200
    QCheck.(triple (int_bound 1000) (int_bound 10_000) (int_bound 10_000))
    (fun (seed, a, b) ->
      let lo = us (min a b) and hi = us (max a b) in
      let v = Rng.uniform_span (Rng.create seed) lo hi in
      Time.(v >= lo) && Time.(v <= hi))

let prop_summary_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.record s) xs;
      let p25 = Stats.Summary.percentile s 25. in
      let p50 = Stats.Summary.percentile s 50. in
      let p75 = Stats.Summary.percentile s 75. in
      p25 <= p50 && p50 <= p75)

let prop_time_scale_roundtrip =
  QCheck.Test.make ~name:"scale by 1.0 is identity" ~count:100 QCheck.int
    (fun n ->
      let n = n mod 1_000_000_000 in
      Time.to_us (Time.scale (us n) 1.0) = n)

let test_proc_nested_spawn () =
  let e = Engine.create () in
  let order = ref [] in
  ignore
    (Proc.spawn e (fun () ->
         order := "outer-start" :: !order;
         let inner =
           Proc.spawn e (fun () ->
               Proc.sleep e (ms 1.);
               order := "inner" :: !order)
         in
         ignore (Proc.join inner);
         order := "outer-end" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "nesting"
    [ "outer-start"; "inner"; "outer-end" ]
    (List.rev !order)

let test_ivar_peek_states () =
  let iv = Ivar.create () in
  Alcotest.(check bool) "empty" false (Ivar.is_filled iv);
  Alcotest.(check (option int)) "peek none" None (Ivar.peek iv);
  Ivar.fill iv 3;
  Alcotest.(check bool) "filled" true (Ivar.is_filled iv);
  Alcotest.(check (option int)) "peek some" (Some 3) (Ivar.peek iv)

let test_tracer_filter_clear () =
  let e = Engine.create () in
  let tr = Tracer.create e in
  probe tr "a" "one";
  probe tr "b" "two";
  probe tr "a" "three";
  let in_a (r : Tracer.record) = (Tracer.view r.Tracer.ev).Tracer.v_cat = "a" in
  Alcotest.(check int) "category a" 2
    (List.length (List.filter in_a (Tracer.records tr)));
  Tracer.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Tracer.records tr))

(* {1 Handle-pooling properties}

   The engine recycles event slots through a free list, telling handles
   apart by generation counter. These properties drive random
   schedule/cancel/run interleavings through the pool hard enough to
   force slot reuse and check the observable contract survives it. *)

(* A script is a list of (delay, op) where op schedules, cancels a
   previously returned live handle, or fires everything due so slots
   recycle mid-script. *)
let prop_pool_stale_cancel_noop =
  QCheck.Test.make ~name:"stale cancel after slot reuse is a no-op" ~count:200
    QCheck.(list (pair (int_bound 50) (int_bound 100)))
    (fun script ->
      let e = Engine.create () in
      let fired = ref 0 in
      let expected = ref 0 in
      (* Schedule n events, fire them all (their slots return to the free
         list), then schedule n more (reusing those slots) and cancel the
         {e stale} handles from the first batch: none of the second batch
         may be lost. *)
      List.iter
        (fun (n, d) ->
          let n = 1 + (n mod 10) in
          let stale =
            List.init n (fun i ->
                Engine.schedule_after e (us (1 + d + i)) (fun () -> incr fired))
          in
          expected := !expected + n;
          Engine.run e;
          let live =
            List.init n (fun i ->
                Engine.schedule_after e (us (1 + d + i)) (fun () -> incr fired))
          in
          expected := !expected + n;
          (* Stale cancels hit recycled slots; the generation check must
             protect the new occupants. *)
          List.iter Engine.cancel stale;
          Engine.run e;
          ignore live)
        script;
      !fired = !expected)

let prop_pool_pending_exact =
  QCheck.Test.make ~name:"pending counts live events exactly" ~count:200
    QCheck.(pair (int_bound 97) (list (int_bound 100)))
    (fun (cancel_mask, delays) ->
      let e = Engine.create () in
      let handles =
        List.mapi
          (fun i d -> (i, Engine.schedule_after e (us (d + 1)) (fun () -> ())))
          delays
      in
      let cancelled =
        List.filter (fun (i, _) -> i mod 7 = cancel_mask mod 7) handles
      in
      List.iter (fun (_, h) -> Engine.cancel h) cancelled;
      (* Double-cancel must not decrement twice. *)
      List.iter (fun (_, h) -> Engine.cancel h) cancelled;
      Engine.pending e = List.length handles - List.length cancelled)

let prop_pool_order_under_recycling =
  QCheck.Test.make ~name:"fire order is (time, seq) under slot recycling"
    ~count:200
    QCheck.(list (int_bound 30))
    (fun delays ->
      (* Interleave schedule bursts with partial drains so later bursts
         reuse earlier bursts' slots, then check the full firing log is
         sorted by time with FIFO tie-break (the log's construction
         order IS the seq order when sorted stably by time). *)
      let e = Engine.create () in
      let log = ref [] in
      let tag = ref 0 in
      List.iter
        (fun d ->
          for _ = 0 to 2 do
            incr tag;
            let t = !tag in
            ignore
              (Engine.schedule e
                 ~at:(Time.add (Engine.now e) (us d))
                 (fun () -> log := (Time.to_us (Engine.now e), t) :: !log))
          done;
          (* Partial drain: step a few events, freeing their slots for
             the next burst. *)
          ignore (Engine.step e);
          ignore (Engine.step e))
        delays;
      Engine.run e;
      let l = List.rev !log in
      (* Firing order must equal (time, schedule order): tags are
         assigned in schedule order, so sorting by time with tag as the
         tie-break must be the identity — anything else means recycling
         broke either the heap order or the FIFO seq tie-break. *)
      List.sort
        (fun (a, ta) (b, tb) ->
          if a <> b then Int.compare a b else Int.compare ta tb)
        l
      = l
      && List.length l = 3 * List.length delays)

(* {1 Fixed-delay lanes}

   An event whose delay owns a lane never enters the heap. Which delays
   own a lane is learned at run time, so the tests find lanes by
   behaviour: [shares_lane d1 d2] holds when, with an event of delay
   [d1] queued, an event of delay [d2] misses every lane. *)

let shares_lane d1 d2 =
  let e = Engine.create () in
  Engine.post_after e (us d1) ignore;
  Engine.post_after e (us d2) ignore;
  Engine.run e;
  Engine.lane_fired e = 1

let test_lane_released_and_reclaimed () =
  let d1 = 10 in
  let d2 =
    let rec find d = if d <> d1 && shares_lane d1 d then d else find (d + 1) in
    find 1
  in
  let e = Engine.create () in
  let cancelled = List.init 3 (fun _ -> Engine.schedule_after e (us d1) ignore) in
  List.iter Engine.cancel cancelled;
  (* Its cancelled entries still hold [d1]'s lane. *)
  Engine.post_after e (us d2) ignore;
  Engine.run e;
  Alcotest.(check int) "fired" 1 (Engine.events_fired e);
  Alcotest.(check int) "missed the held lane" 0 (Engine.lane_fired e);
  (* Drained, the lane is released and [d2] claims it. *)
  for _ = 1 to 3 do
    Engine.post_after e (us d2) ignore
  done;
  Engine.run e;
  Alcotest.(check int) "fired" 4 (Engine.events_fired e);
  Alcotest.(check int) "through the reclaimed lane" 3 (Engine.lane_fired e)

let test_lane_misses_fire_in_order () =
  (* Two events for each of 200 delays, the longest posted first: most
     delays find their lane held by another and go to the heap. *)
  let e = Engine.create () in
  let log = ref [] in
  let tag = ref 0 in
  for d = 200 downto 1 do
    for _ = 1 to 2 do
      let k = !tag in
      incr tag;
      Engine.post_after e (us d) (fun () ->
          log := (Time.to_us (Engine.now e), k) :: !log)
    done
  done;
  Engine.run e;
  let l = List.rev !log in
  let expected =
    List.init 400 (fun k -> (200 - (k / 2), k))
    |> List.sort (fun (a, ka) (b, kb) ->
           if a <> b then Int.compare a b else Int.compare ka kb)
  in
  Alcotest.(check (list (pair int int))) "(time, posting order)" expected l;
  let lanes = Engine.lane_fired e in
  if lanes = 0 || lanes >= 400 then
    Alcotest.failf "%d of 400 events fired from a lane" lanes

(* Allocation pin: a warm lane takes posts and fires without allocating,
   as the heap path does; both a batch on one delay and a chain that
   re-posts itself (releasing and reclaiming its lane every event). *)
let test_lane_allocation () =
  let e = Engine.create () in
  let n = 10_000 in
  let batch () =
    for _ = 1 to n do
      Engine.post_after e (us 7) ignore
    done;
    Engine.run e
  in
  let remaining = ref 0 in
  let rec tick () =
    decr remaining;
    if !remaining > 0 then Engine.post_after e (us 7) tick
  in
  let chain () =
    remaining := n;
    Engine.post_after e (us 7) tick;
    Engine.run e
  in
  List.iter
    (fun (name, f) ->
      f ();
      let lanes = Engine.lane_fired e in
      let before = Gc.minor_words () in
      f ();
      let per_event = (Gc.minor_words () -. before) /. float_of_int n in
      Alcotest.(check int) (name ^ ": through the lane") n (Engine.lane_fired e - lanes);
      if per_event > 0.01 then
        Alcotest.failf "%s: %.3f minor words per event (bound 0.01)" name per_event)
    [ ("batch", batch); ("chain", chain) ]

(* The reference model: random scripts against a sorted list of
   pending events. Delays come from an alphabet with 0 and more delays
   than the engine has lanes, so lanes are claimed, released, reclaimed
   by other delays and missed; an action posts its children (delay 0
   among them: at the current clock) when it fires. *)

let lane_delays = [| 0; 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144 |]

type engine_op =
  | Post of int * int list (* delay, children's delays *)
  | Schedule of int * int list
  | Cancel of int (* a handle returned so far, modulo their number *)
  | Step
  | Until of int (* run ~until:(now + delay) *)
  | Max_steps of int

let pp_engine_op = function
  | Post (d, kids) ->
      Printf.sprintf "post %d [%s]" d (String.concat ";" (List.map string_of_int kids))
  | Schedule (d, kids) ->
      Printf.sprintf "schedule %d [%s]" d
        (String.concat ";" (List.map string_of_int kids))
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Step -> "step"
  | Until d -> Printf.sprintf "until +%d" d
  | Max_steps m -> Printf.sprintf "max_steps %d" m

let gen_engine_op =
  let open QCheck.Gen in
  let delay = oneofa lane_delays in
  let kids = list_size (int_bound 2) (frequency [ (1, return 0); (2, delay) ]) in
  frequency
    [
      (6, map2 (fun d k -> Post (d, k)) delay kids);
      (4, map2 (fun d k -> Schedule (d, k)) delay kids);
      (4, map (fun i -> Cancel i) nat);
      (2, return Step);
      (1, map (fun d -> Until d) delay);
      (1, map (fun m -> Max_steps m) (int_bound 4));
    ]

module Queue_model = struct
  type ev = { time : int; seq : int; tag : int; kids : int list }

  type t = {
    mutable clock : int;
    mutable next_seq : int;
    mutable queue : ev list; (* pending, sorted by (time, seq) *)
    mutable log : (int * int) list; (* (tag, clock) fired, newest first *)
  }

  let create () = { clock = 0; next_seq = 0; queue = []; log = [] }

  let add m ~delay ~tag ~kids =
    let ev = { time = m.clock + delay; seq = m.next_seq; tag; kids } in
    m.next_seq <- m.next_seq + 1;
    let rec ins = function
      | [] -> [ ev ]
      | x :: rest as l ->
          if (x.time, x.seq) > (ev.time, ev.seq) then ev :: l else x :: ins rest
    in
    m.queue <- ins m.queue;
    ev.seq

  let cancel m seq = m.queue <- List.filter (fun ev -> ev.seq <> seq) m.queue

  let step m =
    match m.queue with
    | [] -> false
    | ev :: rest ->
        m.queue <- rest;
        m.clock <- ev.time;
        m.log <- (ev.tag, m.clock) :: m.log;
        List.iteri
          (fun k d -> ignore (add m ~delay:d ~tag:(ev.tag + k + 1) ~kids:[] : int))
          ev.kids;
        true

  let rec until m horizon =
    match m.queue with
    | ev :: _ when ev.time <= horizon ->
        ignore (step m : bool);
        until m horizon
    | _ -> m.clock <- max m.clock horizon

  let rec max_steps m k = if k > 0 && step m then max_steps m (k - 1)
end

let prop_engine_matches_sorted_list =
  QCheck.Test.make ~name:"lanes and heap fire like a sorted list" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_engine_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 150) gen_engine_op))
    (fun ops ->
      let e = Engine.create () in
      let m = Queue_model.create () in
      let log = ref [] in
      let rec action tag kids () =
        log := (tag, Time.to_us (Engine.now e)) :: !log;
        List.iteri
          (fun k d -> Engine.post_after e (us d) (action (tag + k + 1) []))
          kids
      in
      let handles = ref [||] in
      let agree () =
        Engine.pending e = List.length m.Queue_model.queue
        && Time.to_us (Engine.now e) = m.Queue_model.clock
        && !log = m.Queue_model.log
      in
      let apply i op =
        let tag = 10 * (i + 1) in
        match op with
        | Post (d, kids) ->
            Engine.post_after e (us d) (action tag kids);
            ignore (Queue_model.add m ~delay:d ~tag ~kids : int)
        | Schedule (d, kids) ->
            let h = Engine.schedule_after e (us d) (action tag kids) in
            let seq = Queue_model.add m ~delay:d ~tag ~kids in
            handles := Array.append !handles [| (h, seq) |]
        | Cancel k ->
            let n = Array.length !handles in
            if n > 0 then begin
              let h, seq = !handles.(k mod n) in
              Engine.cancel h;
              Queue_model.cancel m seq
            end
        | Step ->
            let fired = Engine.step e in
            if fired <> Queue_model.step m then
              QCheck.Test.fail_report "step disagrees"
        | Until d ->
            Engine.run e ~until:(Time.add (Engine.now e) (us d));
            Queue_model.until m (m.Queue_model.clock + d)
        | Max_steps k ->
            Engine.run e ~max_steps:k;
            Queue_model.max_steps m k
      in
      let rec go i = function
        | [] ->
            Engine.run e;
            Queue_model.max_steps m max_int;
            agree ()
        | op :: rest ->
            apply i op;
            agree () && go (i + 1) rest
      in
      go 0 ops)

(* {1 Tracer ring growth}

   The ring starts small, doubles up to 4096 slots and then jumps to its
   capacity. Whatever the growth history, the records held must be
   exactly what a ring of the full capacity holds: the last [capacity]
   emitted since the last clear, oldest first. Capacities on both sides
   of 4096 take both growth paths. A script is a list of ops: 0 clears,
   anything else emits that many probes. *)
let prop_tracer_growth_matches_fixed_ring =
  QCheck.Test.make ~name:"growing ring retains what a full-size ring does"
    ~count:150
    QCheck.(
      pair
        (oneof [ int_range 1 300; int_range 4097 5000 ])
        (small_list (int_bound 1500)))
    (fun (capacity, script) ->
      let tr = Tracer.create ~capacity (Engine.create ()) in
      let model = ref [] (* emitted since the last clear, newest first *) in
      let next = ref 0 in
      let held () =
        List.map
          (fun (r : Tracer.record) ->
            match r.Tracer.ev with Probe { msg; _ } -> int_of_string msg | _ -> -1)
          (Tracer.records tr)
      in
      let expected () =
        List.rev (List.filteri (fun i _ -> i < capacity) !model)
      in
      List.for_all
        (fun op ->
          if op = 0 then begin
            Tracer.clear tr;
            model := []
          end
          else
            for _ = 1 to op do
              probe tr "x" (string_of_int !next);
              model := !next :: !model;
              incr next
            done;
          held () = expected ())
        script)

(* {1 Int tables}

   [Int_table.Ordered] must visit entries in exactly the order of the
   polymorphic [Hashtbl]: the kernel's iteration order reaches the
   simulation. A script mixes replace, remove, reset, filter_map_inplace
   and copy over a key range wide enough to force several resizes. *)

(* Drops about a third of the entries and rewrites the rest. *)
let int_table_filter k v = if (k + v) mod 3 = 0 then None else Some (v + 1)
let prop_int_table_ordered_matches_hashtbl =
  QCheck.Test.make ~name:"Int_table.Ordered iterates like Hashtbl" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 600)
        (pair (int_bound 99) (oneof [ int_bound 400; int ])))
    (fun script ->
      let poly = ref (Hashtbl.create 8) and mono = ref (Int_table.Ordered.create 8) in
      let same () =
        let f = Hashtbl.fold (fun k v acc -> (k, v) :: acc) !poly [] in
        let g = Int_table.Ordered.fold (fun k v acc -> (k, v) :: acc) !mono [] in
        let fi = ref [] and gi = ref [] in
        Hashtbl.iter (fun k v -> fi := (k, v) :: !fi) !poly;
        Int_table.Ordered.iter (fun k v -> gi := (k, v) :: !gi) !mono;
        f = g && !fi = !gi && f = !fi
      in
      List.for_all
        (fun (op, k) ->
          (if op < 68 then begin
             Hashtbl.replace !poly k op;
             Int_table.Ordered.replace !mono k op
           end
           else if op < 93 then begin
             Hashtbl.remove !poly k;
             Int_table.Ordered.remove !mono k
           end
           else if op < 95 then begin
             Hashtbl.reset !poly;
             Int_table.Ordered.reset !mono
           end
           else if op < 97 then begin
             Hashtbl.filter_map_inplace int_table_filter !poly;
             Int_table.Ordered.filter_map_inplace int_table_filter !mono
           end
           else begin
             poly := Hashtbl.copy !poly;
             mono := Int_table.Ordered.copy !mono
           end);
          same ())
        script)

(* [Int_table.Direct] buckets differently, so only its contents are
   compared with the model: after every step each key the model holds is
   found with its value by [find], [find_opt] and [mem], the step's key
   agrees on all three, and the lengths match. A copy is checked after
   its source is rewritten. *)
let prop_int_table_direct_matches_hashtbl =
  QCheck.Test.make ~name:"Int_table.Direct holds what Hashtbl holds"
    ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 600)
        (pair (int_bound 99) (oneof [ int_bound 400; int ])))
    (fun script ->
      let model = ref (Hashtbl.create 8)
      and tbl = ref (Int_table.Direct.create 8) in
      let agrees k =
        let expect = Hashtbl.find_opt !model k in
        Int_table.Direct.find_opt !tbl k = expect
        && Int_table.Direct.mem !tbl k = Option.is_some expect
        && (match Int_table.Direct.find !tbl k with
           | v -> expect = Some v
           | exception Not_found -> expect = None)
      in
      List.for_all
        (fun (op, k) ->
          (if op < 68 then begin
             Hashtbl.replace !model k op;
             Int_table.Direct.replace !tbl k op
           end
           else if op < 93 then begin
             Hashtbl.remove !model k;
             Int_table.Direct.remove !tbl k
           end
           else if op < 95 then begin
             Hashtbl.reset !model;
             Int_table.Direct.reset !tbl
           end
           else if op < 97 then begin
             Hashtbl.filter_map_inplace int_table_filter !model;
             Int_table.Direct.filter_map_inplace int_table_filter !tbl
           end
           else begin
             model := Hashtbl.copy !model;
             let source = !tbl in
             tbl := Int_table.Direct.copy source;
             (* The copy shares no cell with its source. *)
             Int_table.Direct.filter_map_inplace (fun _ _ -> Some (-1)) source
           end);
          agrees k
          && Int_table.Direct.length !tbl = Hashtbl.length !model
          && Hashtbl.fold (fun k _ ok -> ok && agrees k) !model true)
        script)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "v_sim"
    [
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "rng",
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic
        :: Alcotest.test_case "split independence" `Quick
             test_rng_split_independent
        :: Alcotest.test_case "bounds" `Quick test_rng_bounds
        :: Alcotest.test_case "bool bias" `Quick test_rng_bool_bias
        :: qcheck [ prop_rng_exponential_positive ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "until skips cancelled" `Quick
            test_engine_until_skips_cancelled;
          Alcotest.test_case "rejects past" `Quick test_engine_schedule_past;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_schedule;
        ]
        @ qcheck
            [
              prop_pool_stale_cancel_noop;
              prop_pool_pending_exact;
              prop_pool_order_under_recycling;
            ] );
      ( "lanes",
        [
          Alcotest.test_case "released and reclaimed" `Quick
            test_lane_released_and_reclaimed;
          Alcotest.test_case "misses fire in order" `Quick
            test_lane_misses_fire_in_order;
          Alcotest.test_case "allocation" `Quick test_lane_allocation;
        ]
        @ qcheck [ prop_engine_matches_sorted_list ] );
      ( "proc",
        [
          Alcotest.test_case "runs" `Quick test_proc_runs;
          Alcotest.test_case "sleep" `Quick test_proc_sleep_advances_clock;
          Alcotest.test_case "kill sleeping" `Quick test_proc_kill_sleeping;
          Alcotest.test_case "kill embryo" `Quick test_proc_kill_embryo;
          Alcotest.test_case "exception captured" `Quick test_proc_exn_captured;
          Alcotest.test_case "join" `Quick test_proc_join;
          Alcotest.test_case "pause defers wake" `Quick
            test_proc_pause_defers_wake;
          Alcotest.test_case "unpause before wake" `Quick
            test_proc_pause_unpause_before_wake;
          Alcotest.test_case "kill while paused" `Quick
            test_proc_kill_while_paused;
          Alcotest.test_case "on_exit" `Quick test_proc_on_exit;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks" `Quick test_ivar_read_blocks;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "multiple readers" `Quick
            test_ivar_multiple_readers;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "timeout expires" `Quick
            test_mailbox_timeout_expires;
          Alcotest.test_case "timeout delivers" `Quick
            test_mailbox_timeout_delivers;
          Alcotest.test_case "no lost wakeup" `Quick
            test_mailbox_timeout_no_lost_wakeup;
          Alcotest.test_case "drain" `Quick test_mailbox_drain;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "percentile edge cases" `Quick
            test_percentile_edge_cases;
          Alcotest.test_case "gauge time average" `Quick
            test_gauge_time_average;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "records" `Quick test_tracer_records;
          Alcotest.test_case "disabled" `Quick test_tracer_disabled;
          Alcotest.test_case "by category / clear" `Quick
            test_tracer_filter_clear;
        ]
        @ qcheck [ prop_tracer_growth_matches_fixed_ring ] );
      ( "int-table",
        qcheck
          [
            prop_int_table_ordered_matches_hashtbl;
            prop_int_table_direct_matches_hashtbl;
          ] );
      ( "more-properties",
        Alcotest.test_case "nested spawn/join" `Quick test_proc_nested_spawn
        :: Alcotest.test_case "ivar peek states" `Quick test_ivar_peek_states
        :: qcheck
             [
               prop_engine_fires_in_time_order;
               prop_rng_shuffle_is_permutation;
               prop_rng_uniform_span_in_bounds;
               prop_summary_percentile_monotone;
               prop_time_scale_roundtrip;
             ] );
    ]
