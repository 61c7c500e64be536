(* Tests for the workload layer: the hot/cold dirty model and its
   closed form, the Table 4-1 calibration, the program catalogue, and
   the arrival processes. Property-based tests pin the model invariants
   the migration experiments rely on. *)

let sec = Time.of_sec

(* {1 Dirty model closed form} *)

let test_expected_zero_at_zero () =
  let p =
    { Dirty_model.hot_kb = 50.; hot_write_kb_per_sec = 100.; cold_kb_per_sec = 5. }
  in
  Alcotest.(check (float 1e-9)) "U(0)=0" 0. (Dirty_model.expected_unique_kb p 0.)

let test_expected_saturates_to_hot_plus_cold () =
  let p =
    { Dirty_model.hot_kb = 50.; hot_write_kb_per_sec = 500.; cold_kb_per_sec = 2. }
  in
  let u10 = Dirty_model.expected_unique_kb p 10. in
  (* Hot part saturated at 50; cold contributes 20. *)
  Alcotest.(check (float 0.1)) "saturation" 70. u10

let prop_expected_monotone =
  QCheck.Test.make ~name:"U(t) is monotone in t" ~count:200
    QCheck.(triple (float_bound_exclusive 200.) (float_bound_exclusive 500.) pos_float)
    (fun (hot, rate, t) ->
      let hot = hot +. 1. and rate = rate +. 1. in
      let t = Float.min t 100. in
      let p =
        { Dirty_model.hot_kb = hot; hot_write_kb_per_sec = rate; cold_kb_per_sec = 3. }
      in
      Dirty_model.expected_unique_kb p t
      <= Dirty_model.expected_unique_kb p (t +. 0.5) +. 1e-9)

let prop_expected_bounded_by_traffic =
  QCheck.Test.make ~name:"U(t) <= total write traffic" ~count:200
    QCheck.(pair (float_bound_exclusive 100.) (float_bound_exclusive 10.))
    (fun (rate, t) ->
      let rate = rate +. 0.1 and t = t +. 0.01 in
      let p =
        { Dirty_model.hot_kb = 30.; hot_write_kb_per_sec = rate; cold_kb_per_sec = 1. }
      in
      Dirty_model.expected_unique_kb p t <= ((rate +. 1.) *. t) +. 1e-6)

(* {1 Stochastic model vs closed form} *)

let simulate_unique_kb params seconds =
  let eng = Engine.create () in
  let rng = Rng.create 99 in
  let space =
    Address_space.create ~code_bytes:0 ~data_bytes:0
      ~active_bytes:(1024 * 1024) ()
  in
  let m = Dirty_model.create params space in
  (* Feed CPU in 10 ms slices, as the scheduler does. *)
  let slices = int_of_float (seconds /. 0.010) in
  ignore
    (Proc.spawn eng (fun () ->
         for _ = 1 to slices do
           Dirty_model.on_cpu m rng (Time.of_ms 10.)
         done));
  Engine.run eng;
  float_of_int (Address_space.dirty_bytes space) /. 1024.

let test_stochastic_tracks_closed_form () =
  List.iter
    (fun (name, _) ->
      let spec = Programs.find name in
      let expected = Dirty_model.expected_unique_kb spec.Programs.dirty 1.0 in
      let got = simulate_unique_kb spec.Programs.dirty 1.0 in
      let tol = Float.max 2.0 (0.25 *. expected) in
      if Float.abs (got -. expected) > tol then
        Alcotest.failf "%s: simulated %.1f KB vs closed form %.1f KB" name got
          expected)
    Programs.table_4_1

let test_dirty_model_requires_active_segment () =
  let space = Address_space.create ~code_bytes:1024 ~data_bytes:0 ~active_bytes:0 () in
  let p =
    { Dirty_model.hot_kb = 1.; hot_write_kb_per_sec = 1.; cold_kb_per_sec = 0. }
  in
  Alcotest.check_raises "empty active segment"
    (Invalid_argument "Dirty_model.create: empty active segment") (fun () ->
      ignore (Dirty_model.create p space))

let test_dirty_model_never_touches_code () =
  let spec = Programs.find "parser" in
  let space = Programs.make_space spec in
  let m = Dirty_model.create spec.Programs.dirty space in
  let rng = Rng.create 4 in
  let eng = Engine.create () in
  ignore
    (Proc.spawn eng (fun () ->
         for _ = 1 to 200 do
           Dirty_model.on_cpu m rng (Time.of_ms 10.)
         done));
  Engine.run eng;
  (* Code and initialized-data pages stay clean: pre-copy's round-1-only
     traffic for them is the paper's point about unmodified segments. *)
  let code_pages = Address_space.segment_pages space Address_space.Code in
  let data_pages =
    Address_space.segment_pages space Address_space.Initialized_data
  in
  for p = 0 to code_pages + data_pages - 1 do
    if Address_space.is_dirty space p then
      Alcotest.failf "page %d (code/data) dirtied" p
  done

(* Random model configurations for the two properties below: the
   stochastic dirtying must be a deterministic function of the seed, and
   must never dirty more than the space holds (nor stray outside the
   active segment), whatever the parameters. *)
let drive_random_config (seed, hot_kb, rate_kb, cold_kb, active_kb, centi_s) =
  let params =
    {
      Dirty_model.hot_kb = float_of_int (1 + hot_kb);
      hot_write_kb_per_sec = float_of_int (1 + rate_kb);
      cold_kb_per_sec = float_of_int cold_kb;
    }
  in
  let space =
    Address_space.create ~code_bytes:(2 * 1024) ~data_bytes:1024
      ~active_bytes:((1 + active_kb) * 1024) ()
  in
  let m = Dirty_model.create params space in
  let rng = Rng.create seed in
  let eng = Engine.create () in
  ignore
    (Proc.spawn eng (fun () ->
         for _ = 1 to 1 + centi_s do
           Dirty_model.on_cpu m rng (Time.of_ms 10.)
         done));
  Engine.run eng;
  space

let config_gen =
  QCheck.(
    make
      ~print:(fun (s, h, r, c, a, t) ->
        Printf.sprintf "seed=%d hot=%d rate=%d cold=%d active_kb=%d slices=%d" s
          h r c a t)
      Gen.(
        tup6 (int_bound 10_000) (int_bound 200) (int_bound 500) (int_bound 50)
          (int_bound 300) (int_bound 300)))

let prop_model_deterministic_per_seed =
  QCheck.Test.make ~name:"stochastic model is deterministic per seed"
    ~count:100 config_gen (fun cfg ->
      let a = drive_random_config cfg and b = drive_random_config cfg in
      Address_space.snapshot_dirty a = Address_space.snapshot_dirty b)

let prop_model_dirty_bounded =
  QCheck.Test.make ~name:"dirty pages bounded by the address space"
    ~count:100 config_gen (fun cfg ->
      let space = drive_random_config cfg in
      let inert =
        Address_space.segment_pages space Address_space.Code
        + Address_space.segment_pages space Address_space.Initialized_data
      in
      Address_space.dirty_bytes space <= Address_space.bytes space
      && Address_space.dirty_count space <= Address_space.pages space - inert)

(* {1 Calibration} *)

let test_fit_table_rows_tightly () =
  List.iter
    (fun (name, triple) ->
      let p = Calibrate.fit triple in
      let rms = Calibrate.residual p triple in
      (* The linking-loader row is non-monotone in the paper (measurement
         noise); every other row fits to fractions of a KB. *)
      let budget = if String.equal name "linking loader" then 1.5 else 0.25 in
      if rms > budget then Alcotest.failf "%s: rms %.2f KB > %.2f" name rms budget)
    Programs.table_4_1

let test_fit_predict_roundtrip () =
  let t = { Calibrate.u02 = 10.; u1 = 20.; u3 = 40. } in
  let p = Calibrate.fit t in
  let m = Calibrate.predict p in
  if Float.abs (m.Calibrate.u1 -. 20.) > 2. then
    Alcotest.failf "predict u1 %.1f far from 20" m.Calibrate.u1

let prop_fit_nonnegative_params =
  QCheck.Test.make ~name:"fitted parameters are non-negative" ~count:100
    QCheck.(
      triple (float_bound_exclusive 50.) (float_bound_exclusive 50.)
        (float_bound_exclusive 50.))
    (fun (a, b, c) ->
      (* Build a plausible monotone triple. *)
      let u02 = a +. 0.5 in
      let u1 = u02 +. b in
      let u3 = u1 +. c in
      let p = Calibrate.fit { Calibrate.u02; u1; u3 } in
      p.Dirty_model.hot_kb >= 0.
      && p.Dirty_model.hot_write_kb_per_sec >= 0.
      && p.Dirty_model.cold_kb_per_sec >= 0.)

(* {1 Program catalogue} *)

let test_catalogue_complete () =
  Alcotest.(check int) "eight programs" 8 (List.length Programs.all);
  Alcotest.(check (list string))
    "paper order"
    [
      "make"; "cc68"; "preprocessor"; "parser"; "optimizer"; "assembler";
      "linking loader"; "tex";
    ]
    Programs.names

let test_catalogue_find () =
  let tex = Programs.find "tex" in
  Alcotest.(check string) "name" "tex" tex.Programs.prog_name;
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Programs.find "emacs"))

let test_catalogue_images_positive () =
  List.iter
    (fun s ->
      if
        s.Programs.image.File_server.code_bytes <= 0
        || s.Programs.image.File_server.active_bytes <= 0
        || s.Programs.cpu_seconds <= 0.
      then Alcotest.failf "%s: degenerate spec" s.Programs.prog_name;
      (* Every program must be able to run a 3s Table 4-1 window. *)
      if s.Programs.cpu_seconds < 3.5 then
        Alcotest.failf "%s: too short for a 3 s window" s.Programs.prog_name)
    Programs.all

let test_make_space_geometry () =
  let spec = Programs.find "preprocessor" in
  let sp = Programs.make_space spec in
  Alcotest.(check int) "bytes"
    (spec.Programs.image.File_server.code_bytes
    + spec.Programs.image.File_server.data_bytes
    + spec.Programs.image.File_server.active_bytes)
    (Address_space.bytes sp)

(* {1 Arrivals} *)

let test_poisson_rate () =
  let eng = Engine.create () in
  let rng = Rng.create 12 in
  let n = ref 0 in
  Arrivals.poisson_stream eng rng ~rate_per_sec:2.0 ~until:(sec 500.) (fun _ ->
      incr n);
  Engine.run eng ~until:(sec 500.);
  (* 1000 expected; a 10-sigma band is ~±316. *)
  if !n < 800 || !n > 1200 then Alcotest.failf "got %d arrivals, expected ~1000" !n

let test_poisson_indices_sequential () =
  let eng = Engine.create () in
  let rng = Rng.create 12 in
  let seen = ref [] in
  Arrivals.poisson_stream eng rng ~rate_per_sec:5.0 ~until:(sec 2.) (fun k ->
      seen := k :: !seen);
  Engine.run eng ~until:(sec 2.);
  let l = List.rev !seen in
  Alcotest.(check (list int)) "0..n-1" (List.init (List.length l) Fun.id) l

let test_owner_alternates () =
  let eng = Engine.create () in
  let rng = Rng.create 3 in
  let transitions = ref [] in
  let o =
    Arrivals.Owner.start eng rng
      {
        Arrivals.Owner.active_mean = sec 10.;
        idle_mean = sec 10.;
        active_cpu_fraction = 0.1;
      }
      ~on_transition:(fun a -> transitions := a :: !transitions)
  in
  Engine.run eng ~until:(sec 200.);
  Arrivals.Owner.stop o;
  let l = List.rev !transitions in
  if List.length l < 3 then Alcotest.fail "too few transitions";
  (* Strict alternation starting from idle: true, false, true, ... *)
  List.iteri
    (fun i a ->
      if a <> (i mod 2 = 0) then Alcotest.failf "transition %d out of order" i)
    l

let test_owner_stop () =
  let eng = Engine.create () in
  let rng = Rng.create 3 in
  let count = ref 0 in
  let o =
    Arrivals.Owner.start eng rng Arrivals.Owner.default ~on_transition:(fun _ ->
        incr count)
  in
  Engine.run eng ~until:(sec 100.);
  Arrivals.Owner.stop o;
  let frozen = !count in
  Engine.run eng ~until:(sec 2000.);
  Alcotest.(check int) "no transitions after stop" frozen !count

let prop_exponential_span_positive =
  QCheck.Test.make ~name:"exponential_span >= 1us" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      Time.(Arrivals.exponential_span rng ~mean:(Time.of_ms 5.) >= Time.of_us 1))

(* {1 Rate modulation}

   The Lewis–Shedler thinning behind {!Arrivals.modulated_stream} must
   keep per-stream event times strictly monotone, keep expected counts
   proportional to the base rate, and stay a pure function of the seed
   whatever [-j] carves the work into — the properties the scenario
   library's diurnal and flash-crowd families lean on. *)

let feq ?(tol = 1e-9) name expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %g, got %g" name expected got

let test_rate_multiplier_shapes () =
  feq "constant" 1. (Arrivals.rate_multiplier Arrivals.Constant (sec 123.));
  let sine = Arrivals.Sinusoid { period = sec 8.; depth = 0.5 } in
  feq "sine at 0" 1. (Arrivals.rate_multiplier sine Time.zero);
  feq ~tol:1e-6 "sine crest" 1.5 (Arrivals.rate_multiplier sine (sec 2.));
  feq ~tol:1e-6 "sine trough" 0.5 (Arrivals.rate_multiplier sine (sec 6.));
  feq "sine peak" 1.5 (Arrivals.peak_multiplier sine);
  let deep = Arrivals.Sinusoid { period = sec 8.; depth = 1.4 } in
  feq ~tol:1e-6 "deep sine clamps at 0" 0.
    (Arrivals.rate_multiplier deep (sec 6.));
  let spike =
    Arrivals.Spike
      { at = sec 10.; ramp = sec 2.; hold = sec 3.; decay = sec 5.; mult = 10. }
  in
  feq "spike before ramp" 1. (Arrivals.rate_multiplier spike (sec 7.));
  feq ~tol:1e-6 "spike mid-ramp" 5.5 (Arrivals.rate_multiplier spike (sec 9.));
  feq "spike plateau" 10. (Arrivals.rate_multiplier spike (sec 11.));
  feq ~tol:1e-6 "spike mid-decay" 5.5
    (Arrivals.rate_multiplier spike (sec 15.5));
  feq "spike after decay" 1. (Arrivals.rate_multiplier spike (sec 30.));
  feq "spike peak" 10. (Arrivals.peak_multiplier spike)

let modulation_gen =
  QCheck.(
    make
      ~print:(fun (seed, m) ->
        Printf.sprintf "seed=%d %s" seed (Arrivals.modulation_to_string m))
      Gen.(
        pair (int_bound 100_000)
          (oneof
             [
               return Arrivals.Constant;
               map2
                 (fun p d ->
                   Arrivals.Sinusoid
                     {
                       period = sec (float_of_int p);
                       depth = float_of_int d /. 10.;
                     })
                 (2 -- 20) (0 -- 10);
               map2
                 (fun at mult ->
                   Arrivals.Spike
                     {
                       at = sec (float_of_int at);
                       ramp = sec 2.;
                       hold = sec 2.;
                       decay = sec 3.;
                       mult = float_of_int mult;
                     })
                 (5 -- 20) (2 -- 12);
             ])))

let prop_modulated_times_strictly_monotone =
  QCheck.Test.make ~name:"modulated times strictly increase" ~count:100
    modulation_gen (fun (seed, m) ->
      let until = sec 30. in
      let times =
        Arrivals.modulated_times (Rng.create seed) ~rate_per_sec:3.0
          ~modulation:m ~until
      in
      let rec strictly_up = function
        | a :: (b :: _ as rest) -> Time.(a < b) && strictly_up rest
        | _ -> true
      in
      strictly_up times
      && List.for_all (fun t -> Time.(t > Time.zero) && Time.(t <= until)) times)

let prop_stream_matches_offline_sampler =
  QCheck.Test.make ~name:"engine stream = offline sampler" ~count:50
    modulation_gen (fun (seed, m) ->
      let until = sec 25. in
      let offline =
        Arrivals.modulated_times (Rng.create seed) ~rate_per_sec:2.0
          ~modulation:m ~until
      in
      let eng = Engine.create () in
      let got = ref [] in
      Arrivals.modulated_stream eng (Rng.create seed) ~rate_per_sec:2.0
        ~modulation:m ~until (fun _ -> got := Engine.now eng :: !got);
      Engine.run eng;
      List.equal Time.equal offline (List.rev !got))

let test_modulated_count_scales_with_rate () =
  let count rate seed =
    List.length
      (Arrivals.modulated_times (Rng.create seed) ~rate_per_sec:rate
         ~modulation:Arrivals.Constant ~until:(sec 400.))
  in
  (* 400 vs 1200 expected arrivals; the ratio concentrates tightly. *)
  let lo = count 1.0 5 and hi = count 3.0 7 in
  let ratio = float_of_int hi /. float_of_int lo in
  if ratio < 2. || ratio > 4. then
    Alcotest.failf "rate tripled but count ratio %.2f (lo=%d hi=%d)" ratio lo hi

let test_sinusoid_preserves_mean_rate () =
  (* sin integrates to zero over whole periods, so a depth<=1 sinusoid
     keeps the expected count of the flat stream: both expect 800. *)
  let until = sec 400. in
  let n m seed =
    List.length
      (Arrivals.modulated_times (Rng.create seed) ~rate_per_sec:2.0
         ~modulation:m ~until)
  in
  let flat = n Arrivals.Constant 11 in
  let sine = n (Arrivals.Sinusoid { period = sec 10.; depth = 0.9 }) 13 in
  if abs (flat - sine) > 250 then
    Alcotest.failf "constant %d vs sinusoid %d arrivals" flat sine

let test_modulated_deterministic_across_jobs () =
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let spike =
    Arrivals.Spike
      { at = sec 10.; ramp = sec 2.; hold = sec 2.; decay = sec 3.; mult = 8. }
  in
  let run seed () =
    List.map Time.to_us
      (Arrivals.modulated_times (Rng.create seed) ~rate_per_sec:2.0
         ~modulation:spike ~until:(sec 20.))
  in
  let j1 = Parrun.run ~jobs:1 (List.map run seeds) in
  let j2 = Parrun.run ~jobs:2 (List.map run seeds) in
  Alcotest.(check (list (list int))) "jobs 1 = jobs 2" j1 j2

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "v_workload"
    [
      ( "dirty-model",
        Alcotest.test_case "U(0)=0" `Quick test_expected_zero_at_zero
        :: Alcotest.test_case "saturation" `Quick
             test_expected_saturates_to_hot_plus_cold
        :: Alcotest.test_case "stochastic tracks closed form" `Quick
             test_stochastic_tracks_closed_form
        :: Alcotest.test_case "requires active segment" `Quick
             test_dirty_model_requires_active_segment
        :: Alcotest.test_case "never touches code" `Quick
             test_dirty_model_never_touches_code
        :: qcheck
             [
               prop_expected_monotone; prop_expected_bounded_by_traffic;
               prop_model_deterministic_per_seed; prop_model_dirty_bounded;
             ] );
      ( "calibration",
        Alcotest.test_case "fits Table 4-1 tightly" `Quick
          test_fit_table_rows_tightly
        :: Alcotest.test_case "fit/predict roundtrip" `Quick
             test_fit_predict_roundtrip
        :: qcheck [ prop_fit_nonnegative_params ] );
      ( "programs",
        [
          Alcotest.test_case "catalogue complete" `Quick test_catalogue_complete;
          Alcotest.test_case "find" `Quick test_catalogue_find;
          Alcotest.test_case "specs well-formed" `Quick
            test_catalogue_images_positive;
          Alcotest.test_case "space geometry" `Quick test_make_space_geometry;
        ] );
      ( "arrivals",
        Alcotest.test_case "poisson rate" `Quick test_poisson_rate
        :: Alcotest.test_case "indices sequential" `Quick
             test_poisson_indices_sequential
        :: Alcotest.test_case "owner alternates" `Quick test_owner_alternates
        :: Alcotest.test_case "owner stop" `Quick test_owner_stop
        :: qcheck [ prop_exponential_span_positive ] );
      ( "modulation",
        Alcotest.test_case "rate multiplier shapes" `Quick
          test_rate_multiplier_shapes
        :: Alcotest.test_case "count scales with rate" `Quick
             test_modulated_count_scales_with_rate
        :: Alcotest.test_case "sinusoid preserves mean rate" `Quick
             test_sinusoid_preserves_mean_rate
        :: Alcotest.test_case "deterministic across jobs" `Quick
             test_modulated_deterministic_across_jobs
        :: qcheck
             [
               prop_modulated_times_strictly_monotone;
               prop_stream_matches_offline_sampler;
             ] );
    ]
